"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import check_positive, check_square


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


class TestScalarChecks:
    def test_positive(self):
        assert check_positive(0.5) == 0.5
        with pytest.raises(ValueError):
            check_positive(0.0)
