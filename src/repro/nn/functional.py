"""Stateless tensor ops: im2col/col2im convolution kernels, softmax, one-hot.

Convolution is implemented with the standard im2col trick so the heavy
lifting is a single matrix multiply per layer — the only way to get usable
CNN throughput in pure numpy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def pair(value) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a ``(h, w)`` tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected length-2 tuple, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


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


def cached_pool_window_mask(
    cache,
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    dtype,
):
    """One-slot ``(height, width)``-keyed cache around
    :func:`pool_window_mask`.

    ``cache`` is the caller's previous ``(key, mask)`` tuple (or
    ``None``); returns ``(new_cache, mask)``.  Both the per-worker
    :class:`~repro.nn.layers.MaxPool2d` and the batched kernel route
    their caching through here, so the key policy lives once.
    """
    key = (height, width)
    if cache is None or cache[0] != key:
        cache = (key, pool_window_mask(height, width, kernel, stride, padding, dtype))
    return cache, cache[1]


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


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Integer labels ``(batch,)`` to one-hot ``(batch, num_classes)``
    in ``dtype`` (default float64)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    encoded = np.zeros((labels.size, num_classes), dtype=dtype)
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded
