"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_square,
    check_symmetric,
)


class TestCheckSquare:
    def test_accepts_square(self):
        matrix = check_square(np.eye(3))
        assert matrix.shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            check_square(np.zeros(4))

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="bandwidth"):
            check_square(np.zeros((1, 2)), name="bandwidth")


class TestCheckSymmetric:
    def test_accepts_symmetric(self):
        matrix = np.array([[1.0, 2.0], [2.0, 3.0]])
        check_symmetric(matrix)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_nan_diagonal_allowed(self):
        matrix = np.array([[np.nan, 1.0], [1.0, np.nan]])
        check_symmetric(matrix)


class TestScalarChecks:
    def test_positive(self):
        assert check_positive(0.5) == 0.5
        with pytest.raises(ValueError):
            check_positive(0.0)

    def test_non_negative(self):
        assert check_non_negative(0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1e-9)

    def test_in_range(self):
        assert check_in_range(3, 1, 5) == 3
        with pytest.raises(ValueError):
            check_in_range(6, 1, 5)
