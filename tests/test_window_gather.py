"""The cached-index window gather/scatter against the kernels it replaced.

The batched-vs-loop equivalence suites cannot catch a gather bug — both
sides call the same :func:`repro.nn.functional.im2col` — so these
properties compare the production kernels with the three-pass originals
kept verbatim in ``tests/reference/conv2d.py``, bit for bit (NaN
payloads and the sign of zero included), over generated geometry, both
dtypes and both memory layouts the gather reads in place.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.batched import BatchedMaxPool2d
from repro.nn.layers import MaxPool2d
from tests.reference.per_worker import per_worker
from tests.reference import conv2d as reference

#: Pooling inputs: few distinct values (ties everywhere), both zeros,
#: NaN and both infinities.
POOL_VALUES = (0.0, -0.0, 1.0, 1.0, -1.0, 2.0, np.nan, -np.inf, np.inf)
#: Summation inputs: magnitudes far enough apart that any change in the
#: order of the adds changes the rounded result.
SUM_VALUES = (0.0, -0.0, 1.0, -1.0, 0.1, 3.0e-8, 1.0e16, -1.0e16, 7.5e7)


def assert_same_floats(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape and got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)  # NaN equals NaN here
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
    assert np.ascontiguousarray(got).tobytes() == (
        np.ascontiguousarray(expected).tobytes()
    )


def channels_last(images: np.ndarray) -> np.ndarray:
    """The same values as an NCHW view of NHWC memory (a conv output)."""
    return np.ascontiguousarray(images.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@st.composite
def windows(draw):
    """Image shape, kernel, stride, padding, dtype and a value seed."""
    channels = draw(st.integers(1, 8))
    height, width = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    assume(kernel[0] <= height + 2 * padding[0])
    assume(kernel[1] <= width + 2 * padding[1])
    shape = (draw(st.integers(1, 3)), channels, height, width)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, kernel, stride, padding, dtype, draw(st.integers(0, 2**32 - 1))


def sample(values, shape, dtype, seed) -> np.ndarray:
    """Values drawn from the palette ``values`` — or, when it is
    ``None``, distinct normals (local maxima win many windows)."""
    rng = np.random.default_rng(seed)
    if values is None:
        return rng.normal(size=shape).astype(dtype)
    return rng.choice(values, size=shape).astype(dtype)


class TestGather:
    @settings(max_examples=80, deadline=None)
    @given(windows(), st.booleans())
    def test_conv_patches_equal_three_pass(self, window, nhwc):
        shape, kernel, stride, padding, dtype, seed = window
        images = sample(SUM_VALUES, shape, dtype, seed)
        expected = reference.im2col(images, kernel, stride, padding)
        if nhwc:
            images = channels_last(images)
        got = F.im2col(images, kernel, stride, padding)
        assert got.flags.c_contiguous
        assert_same_floats(got, expected)

    @settings(max_examples=80, deadline=None)
    @given(windows(), st.booleans())
    def test_per_channel_patches_equal_masked_fold(self, window, nhwc):
        """Pool patches: the channel-folded three-pass gather, padded
        cells masked to ``-inf``."""
        shape, kernel, stride, padding, dtype, seed = window
        images = sample(POOL_VALUES, shape, dtype, seed)
        batch, channels, height, width = shape
        expected = reference.im2col(
            images.reshape(batch * channels, 1, height, width),
            kernel, stride, padding,
        )
        if padding != (0, 0):
            mask = reference.pool_window_mask(
                height, width, kernel, stride, padding, dtype
            )
            expected = reference.mask_padded_cols(
                expected, mask, kernel[0] * kernel[1]
            )
        if nhwc:
            images = channels_last(images)
        got = F.im2col(
            images, kernel, stride, padding, -np.inf, per_channel=True
        )
        # One slab per window offset: (kh·kw, batch, cells), the cells in
        # the input's layout order.
        window = kernel[0] * kernel[1]
        out_h, out_w = F.output_hw(shape, kernel, stride, padding)
        if nhwc:
            slabs = got.reshape(window, batch, out_h, out_w, channels)
            slabs = slabs.transpose(0, 1, 4, 2, 3)
        else:
            slabs = got.reshape(window, batch, channels, out_h, out_w)
        assert_same_floats(np.moveaxis(slabs, 0, -1).reshape(-1, window), expected)

    @settings(max_examples=80, deadline=None)
    @given(windows(), st.booleans(), st.booleans())
    def test_every_index_entry_lies_inside_its_image(
        self, window, nhwc, per_channel
    ):
        """The one range check that lets every gather use ``mode="clip"``:
        no entry of any cached index reaches outside one padded image,
        and every patch cell appears."""
        shape, kernel, stride, padding, _, _ = window
        _, channels, height, width = shape
        padded_h, padded_w = height + 2 * padding[0], width + 2 * padding[1]
        index = F.window_index(
            "nhwc" if nhwc else "nchw", channels, padded_h, padded_w,
            kernel, stride, per_channel,
        )
        out_h, out_w = F.output_hw(shape, kernel, stride, padding)
        assert index.size == channels * out_h * out_w * kernel[0] * kernel[1]
        assert 0 <= index.min() and index.max() < channels * padded_h * padded_w

    def test_strides_outside_both_layouts_are_gathered_from_a_copy(self, rng):
        images = rng.normal(size=(2, 3, 9, 9))[:, :, ::2, 1::2]
        assert F.memory_layout(images) == "nchw"
        assert_same_floats(
            F.im2col(images, (3, 2), (1, 2), (1, 0)),
            reference.im2col(images, (3, 2), (1, 2), (1, 0)),
        )


class TestCol2Im:
    @settings(max_examples=80, deadline=None)
    @given(windows(), st.booleans())
    def test_scatter_add_equals_three_pass(self, window, last):
        shape, kernel, stride, padding, dtype, seed = window
        batch, channels, height, width = shape
        out_h = F.conv_output_size(height, kernel[0], stride[0], padding[0])
        out_w = F.conv_output_size(width, kernel[1], stride[1], padding[1])
        cols = sample(
            SUM_VALUES + (np.nan, np.inf),
            (batch * out_h * out_w, channels * kernel[0] * kernel[1]),
            dtype, seed,
        )
        got = F.col2im(cols, shape, kernel, stride, padding, channels_last=last)
        assert_same_floats(
            got, reference.col2im(cols, shape, kernel, stride, padding)
        )

    def test_channels_last_buffer_is_nhwc(self, rng):
        shape = (2, 3, 6, 5)
        cols = rng.normal(size=(2 * 6 * 5, 3 * 9))
        got = F.col2im(cols, shape, (3, 3), (1, 1), (1, 1), channels_last=True)
        # A (2, 8, 7, 3) buffer: channels innermost, then columns, rows.
        assert got.strides == (8 * 7 * 3 * 8, 8, 7 * 3 * 8, 3 * 8)


class TestMaxPool:
    @settings(max_examples=100, deadline=None)
    @given(windows(), st.booleans(), st.sampled_from([POOL_VALUES, None]))
    def test_layer_equals_masked_three_pass(self, window, nhwc, palette):
        """Values, argmax and the input gradient of the per-worker layer,
        padded overlapping windows, ties, ±0, NaN and ``-inf`` included."""
        shape, kernel, stride, padding, dtype, seed = window
        images = sample(palette, shape, dtype, seed)
        expected, argmax, cols_shape = reference.max_pool(
            images, kernel, stride, padding
        )
        grads = sample(SUM_VALUES + (np.nan,), expected.shape, dtype, seed + 1)
        expected_grad = reference.max_pool_backward(
            grads, argmax, cols_shape, shape, kernel, stride, padding
        )
        inputs = channels_last(images) if nhwc else images
        layer = per_worker(MaxPool2d(kernel, stride=stride, padding=padding))
        got = layer.forward(inputs)
        # (batch, channels, oh, ow), in the reference's row order.
        np.testing.assert_array_equal(layer._argmax.reshape(-1), argmax)
        assert_same_floats(got, expected)
        grad = layer.backward(grads)
        if padding == (0, 0):  # laid out like the forward input
            assert F.memory_layout(grad) == F.memory_layout(inputs)
        assert_same_floats(grad, expected_grad)

    @settings(max_examples=40, deadline=None)
    @given(
        windows(), st.integers(1, 3), st.booleans(),
        st.sampled_from([POOL_VALUES, None]),
    )
    def test_batched_kernel_equals_masked_three_pass(
        self, window, count, nhwc, palette
    ):
        shape, kernel, stride, padding, dtype, seed = window
        stacked = (count,) + shape
        images = sample(palette, stacked, dtype, seed)
        folded = images.reshape((-1,) + shape[1:])
        expected, argmax, cols_shape = reference.max_pool(
            folded, kernel, stride, padding
        )
        grads = sample(SUM_VALUES, expected.shape, dtype, seed + 1)
        expected_grad = reference.max_pool_backward(
            grads, argmax, cols_shape, folded.shape, kernel, stride, padding
        )
        if nhwc:
            images = channels_last(folded).reshape(stacked)
        pool = BatchedMaxPool2d(kernel, stride, padding)
        got = pool.forward(images)
        assert_same_floats(got, expected.reshape(got.shape))
        grad = pool.backward(grads.reshape(got.shape))
        assert_same_floats(grad, expected_grad.reshape(stacked))
        # The eval pass reuses the workspace, so it runs after backward.
        assert_same_floats(pool.forward_vector(None, folded), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_wider_than_int8_keeps_its_argmax(self, dtype):
        """12×11 = 132 candidates: the argmax needs int16, and a winner
        past offset 127 (ties and NaN included) must survive the store."""
        images = sample(None, (2, 3, 14, 13), dtype, 5)
        images[1, 1] = sample(POOL_VALUES, (14, 13), dtype, 6)
        images[1, 2] = -np.inf
        # Padded row 11, column 9 of the first window: offset 11·11 + 9.
        images[0, 0, 10, 9] = 9.0
        kernel, stride, padding = (12, 11), (1, 2), (1, 0)
        expected, argmax, _ = reference.max_pool(images, kernel, stride, padding)
        got, got_argmax, _ = F.max_pool(images, kernel, stride, padding)
        assert got_argmax.dtype == np.int16
        assert got_argmax[0, 0, 0, 0] == 130
        np.testing.assert_array_equal(got_argmax.reshape(-1), argmax)
        assert_same_floats(got, expected)
        assert F.max_pool(images[:, :, :3, :3], (2, 2), (2, 2), (0, 0))[1].dtype == np.int8
