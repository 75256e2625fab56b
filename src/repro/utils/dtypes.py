"""Numeric-dtype policy for the simulator.

The measured systems exchange fp32 tensors, while the simulator has
historically computed in float64.  Every array-allocating layer (nn
substrate, parameter arena, compression, flat packing) is parametrized
over one of two dtypes:

* ``float64`` — the default; bit-identical to the historical behaviour
  and what the reference trajectories are pinned against.
* ``float32`` — the end-to-end reduced-precision path: halves resident
  model/replica memory and memory traffic, matching the systems the
  paper measures (wire accounting always assumed 4-byte values).

:func:`resolve_dtype` is the single funnel: it accepts ``None`` (meaning
the default), a string (``"float32"``/``"float64"``), or anything
``np.dtype`` accepts, and rejects non-float dtypes so an accidental
integer dtype cannot silently corrupt training.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: The historical (and default) simulation dtype.
DEFAULT_DTYPE = np.dtype(np.float64)

#: Dtypes the numeric substrate supports end-to-end.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

DTypeLike = Union[None, str, type, np.dtype]


def resolve_dtype(dtype: DTypeLike = None) -> np.dtype:
    """Normalize a user-facing dtype spec to a supported ``np.dtype``.

    ``None`` resolves to :data:`DEFAULT_DTYPE` (float64).  Anything that
    does not normalize to float32/float64 raises ``ValueError`` — the
    substrate is only validated for those two.
    """
    if dtype is None:
        return DEFAULT_DTYPE
    try:
        resolved = np.dtype(dtype)
    except TypeError as error:
        raise ValueError(f"unrecognized dtype {dtype!r}") from error
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(
            f"dtype {resolved.name!r} is not supported; choose one of "
            f"{[d.name for d in SUPPORTED_DTYPES]}"
        )
    return resolved
