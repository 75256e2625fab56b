"""Flat-vector packing of structured parameter lists.

The distributed algorithms in this library all operate on the model as a
single vector ``x ∈ R^N`` (the paper's notation).  The neural-network
substrate stores parameters as a list of arrays; :func:`param_specs` lays
them out in that vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ParamSpec:
    """Shape/offset bookkeeping for one array inside a flat vector."""

    shape: Tuple[int, ...]
    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


def param_specs(arrays: Sequence[np.ndarray]) -> List[ParamSpec]:
    """Compute the :class:`ParamSpec` layout for a list of arrays."""
    specs: List[ParamSpec] = []
    offset = 0
    for array in arrays:
        size = int(np.prod(array.shape)) if array.shape else 1
        specs.append(ParamSpec(shape=tuple(array.shape), offset=offset, size=size))
        offset += size
    return specs

