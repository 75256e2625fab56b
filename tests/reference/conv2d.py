"""Reference window kernels the production gather/scatter is checked
against.

* :func:`conv2d_naive` — direct loop convolution, the oracle for the
  im2col + GEMM convolution (``tests/test_nn_functional.py``).
* :func:`im2col`, :func:`col2im`, :func:`pool_window_mask` and
  :func:`mask_padded_cols` — the three-pass kernels ``repro.nn.functional``
  ran before the cached-index gather, kept verbatim: ``np.pad``, kh·kw
  strided fills and a transpose copy for the gather; an NCHW buffer for
  the scatter-add; a probe-built pad mask with a ``-inf`` fill for
  padded max-pooling.  :func:`max_pool` / :func:`max_pool_backward` are
  the per-worker ``MaxPool2d`` forward/backward of that time, built from
  them.  ``tests/test_window_gather.py`` asserts the production kernels
  equal these bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_size


def conv2d_naive(
    images: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray = None,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    batch, channels, height, width = images.shape
    out_channels, in_channels, kh, kw = weight.shape
    if in_channels != channels:
        raise ValueError(f"channel mismatch: {channels} vs {in_channels}")
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)
    padded = np.pad(images, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    output = np.zeros((batch, out_channels, out_h, out_w), dtype=images.dtype)
    for b in range(batch):
        for oc in range(out_channels):
            for oy in range(out_h):
                for ox in range(out_w):
                    patch = padded[
                        b, :, oy * sh : oy * sh + kh, ox * sw : ox * sw + kw
                    ]
                    output[b, oc, oy, ox] = np.sum(patch * weight[oc])
            if bias is not None:
                output[b, oc] += bias[oc]
    return output


def im2col(
    images: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        ``(batch, channels, height, width)`` array.

    Returns
    -------
    ``(batch * out_h * out_w, channels * kh * kw)`` matrix whose rows are
    the flattened receptive fields.
    """
    batch, channels, height, width = images.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    padded = np.pad(
        images, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant"
    )
    cols = np.empty((batch, channels, kh, kw, out_h, out_w), dtype=images.dtype)
    for y in range(kh):
        y_end = y + sh * out_h
        for x in range(kw):
            x_end = x + sw * out_w
            cols[:, :, y, x, :, :] = padded[:, :, y:y_end:sh, x:x_end:sw]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kh * kw
    )


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into images.

    Overlapping patches accumulate, which is exactly the gradient of
    :func:`im2col`.
    """
    batch, channels, height, width = image_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype
    )
    for y in range(kh):
        y_end = y + sh * out_h
        for x in range(kw):
            x_end = x + sw * out_w
            padded[:, :, y:y_end:sh, x:x_end:sw] += cols[:, :, y, x, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + height, pw : pw + width]


def pool_window_mask(
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    dtype,
) -> np.ndarray:
    """Boolean ``(out_h·out_w, kh·kw)`` mask of real (non-padded) window
    positions for one ``(height, width)`` image.

    The probe is allocated in ``dtype`` so building the mask never
    touches float64 for float32 runs.  The mask is static per input
    size — callers cache it instead of rebuilding per forward.
    """
    probe = np.ones((1, 1, height, width), dtype=dtype)
    return im2col(probe, kernel, stride, padding) > 0


def mask_padded_cols(
    cols: np.ndarray, mask: np.ndarray, window: int
) -> np.ndarray:
    """Replace padded cells of folded im2col ``cols`` with ``-inf``.

    ``cols`` is the ``(num_images·out_h·out_w, window)`` matrix of a
    channel-folded pooling im2col; ``mask`` the single-image
    :func:`pool_window_mask`.  The fill is typed from ``cols`` so
    float32 columns stay float32 under any promotion rules.  This is
    the one construction both the per-worker :class:`MaxPool2d` and the
    batched kernel use — keeping them bit-identical by sharing, not by
    synchronization.
    """
    return np.where(
        mask[None],
        cols.reshape(-1, mask.shape[0], window),
        cols.dtype.type(-np.inf),
    ).reshape(cols.shape)


def max_pool(images, kernel, stride, padding):
    """``(output, argmax, cols_shape)`` of the masked three-pass max-pool
    forward on ``(batch, channels, h, w)`` images."""
    batch, channels, height, width = images.shape
    kh, kw = kernel
    out_h = conv_output_size(height, kh, stride[0], padding[0])
    out_w = conv_output_size(width, kw, stride[1], padding[1])
    folded = images.reshape(batch * channels, 1, height, width)
    cols = im2col(folded, kernel, stride, padding)
    if padding != (0, 0):
        mask = pool_window_mask(height, width, kernel, stride, padding, images.dtype)
        cols = mask_padded_cols(cols, mask, kh * kw)
    argmax = np.argmax(cols, axis=1)
    output = cols[np.arange(cols.shape[0]), argmax]
    return output.reshape(batch, channels, out_h, out_w), argmax, cols.shape


def max_pool_backward(grad_output, argmax, cols_shape, image_shape, kernel,
                      stride, padding):
    """The three-pass max-pool backward: one-hot gradient columns,
    :func:`col2im` into an NCHW buffer."""
    batch, channels, height, width = image_shape
    grad_cols = np.zeros(cols_shape, dtype=grad_output.dtype)
    grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_output.ravel()
    folded_shape = (batch * channels, 1, height, width)
    grad_folded = col2im(grad_cols, folded_shape, kernel, stride, padding)
    return grad_folded.reshape(batch, channels, height, width)
