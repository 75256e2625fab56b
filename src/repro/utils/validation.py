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


def check_symmetric(
    matrix: np.ndarray, name: str = "matrix", atol: float = 1e-9
) -> np.ndarray:
    """Require a symmetric square array."""
    matrix = check_square(matrix, name)
    if not np.allclose(matrix, matrix.T, atol=atol, equal_nan=True):
        raise ValueError(f"{name} must be symmetric")
    return matrix


def check_positive(value: float, name: str = "value") -> float:
    """Require a strictly positive number."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: float, name: str = "value") -> float:
    """Require a non-negative number."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_in_range(
    value: float, low: float, high: float, name: str = "value"
) -> float:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value
