"""Small argument-validation helpers used across the library.

Each raises ``ValueError`` with a message naming the offending argument, so
call sites stay one-liners and error messages stay consistent.
"""

from __future__ import annotations

import numpy as np


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Require a 2-D square array; return it as ``ndarray``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    return matrix


def check_non_negative(value: float, name: str = "value") -> float:
    """Require a finite number ``>= 0`` (NaN and inf fail)."""
    if not 0 <= value < float("inf"):
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return value


def check_positive(value: float, name: str = "value") -> float:
    """Require a strictly positive, finite number (NaN and inf fail)."""
    if not 0 < value < float("inf"):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value
