"""Tests for repro.nn.functional: im2col/col2im, conv equivalence."""

import numpy as np
import pytest

from repro.nn import functional as F
from tests.reference.conv2d import conv2d_naive


class TestPair:
    def test_int(self):
        assert F.pair(3) == (3, 3)

    def test_tuple(self):
        assert F.pair((2, 5)) == (2, 5)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            F.pair((1, 2, 3))


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(28, 5, 1, 2) == 28
        assert F.conv_output_size(28, 2, 2, 0) == 14
        assert F.conv_output_size(32, 3, 2, 1) == 16

    def test_non_positive_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self):
        images = np.zeros((2, 3, 8, 8))
        cols = F.im2col(images, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_known_patch_values(self):
        image = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(image, (2, 2), (2, 2), (0, 0))
        # First patch is the top-left 2x2 block.
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[3], [10, 11, 14, 15])

    def test_col2im_adjoint_of_im2col(self, rng):
        """col2im must be the exact adjoint (transpose) of im2col:
        <im2col(x), y> == <x, col2im(y)> for all x, y."""
        shape = (2, 3, 6, 7)
        kernel, stride, padding = (3, 2), (2, 1), (1, 1)
        x = rng.normal(size=shape)
        cols = F.im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * F.col2im(y, shape, kernel, stride, padding)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConvEquivalence:
    @pytest.mark.parametrize(
        "stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((1, 2), (2, 0))]
    )
    def test_im2col_conv_matches_naive(self, rng, stride, padding):
        images = rng.normal(size=(2, 3, 9, 8))
        weight = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=4)
        expected = conv2d_naive(images, weight, bias, stride, padding)

        cols = F.im2col(images, (3, 3), stride, padding)
        out_h = F.conv_output_size(9, 3, stride[0], padding[0])
        out_w = F.conv_output_size(8, 3, stride[1], padding[1])
        got = (cols @ weight.reshape(4, -1).T + bias).reshape(
            2, out_h, out_w, 4
        ).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(got, expected, atol=1e-10)
