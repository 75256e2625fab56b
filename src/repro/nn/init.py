"""Weight-initialization schemes (Kaiming uniform, fan computation).

Every initializer takes a ``dtype`` (float32/float64, default float64 via
:func:`repro.utils.dtypes.resolve_dtype`).  Random draws always happen in
float64 — the generator's native precision — and are cast once, so a
float32 model is the *rounded* float64 initialization rather than a
different random stream.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import SeedLike, as_generator


def compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    Linear weights are ``(out, in)``; conv weights are
    ``(out_ch, in_ch, kh, kw)`` with receptive-field size folded in.
    """
    if len(shape) < 1:
        raise ValueError("scalar parameters have no fan")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = 1
    for dim in shape[2:]:
        receptive *= dim
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def _cast(array: np.ndarray, dtype: DTypeLike) -> np.ndarray:
    return array.astype(resolve_dtype(dtype), copy=False)


def kaiming_uniform(
    shape: Tuple[int, ...],
    rng: SeedLike = None,
    gain: float = np.sqrt(2.0),
    dtype: DTypeLike = None,
) -> np.ndarray:
    """He-style uniform init, appropriate for ReLU networks."""
    rng = as_generator(rng)
    fan_in, _ = compute_fans(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return _cast(rng.uniform(-bound, bound, size=shape), dtype)


def zeros(shape: Tuple[int, ...], dtype: DTypeLike = None) -> np.ndarray:
    return np.zeros(shape, dtype=resolve_dtype(dtype))


def ones(shape: Tuple[int, ...], dtype: DTypeLike = None) -> np.ndarray:
    return np.ones(shape, dtype=resolve_dtype(dtype))
