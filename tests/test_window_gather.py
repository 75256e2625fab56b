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
        assert_same_floats(got, expected)

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
        assert got.base is not None and got.base.shape == (2, 8, 7, 3)


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
        np.testing.assert_array_equal(layer._argmax, argmax)
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
        assert_same_floats(pool.forward_vector(None, folded), expected)
        grad = pool.backward(grads.reshape(got.shape))
        assert_same_floats(grad, expected_grad.reshape(stacked))
