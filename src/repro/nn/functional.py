"""Stateless tensor ops: the conv and pooling window kernels.

Convolution is implemented with the standard im2col trick so the heavy
lifting is a single matrix multiply per layer — the only way to get usable
CNN throughput in pure numpy.  Every window kernel (per-worker and
batched, train and eval) builds its patch matrix with :func:`im2col`: one
:func:`numpy.take` of a cached index that follows the input's memory
layout, from a halo of ``0`` (conv) or ``-inf`` (max-pool) when padded.
Only values move, so GEMMs and reductions see the operands they always
did (``tests/reference/conv2d.py`` keeps the kernels this replaced).
"""

from __future__ import annotations

import functools
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


def output_hw(image_shape, kernel, stride, padding) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a window sliding over the last two axes."""
    return tuple(
        conv_output_size(size, k, s, p)
        for size, k, s, p in zip(image_shape[-2:], kernel, stride, padding)
    )


def memory_layout(images: np.ndarray) -> str:
    """``"nhwc"`` when ``(batch, channels, h, w)`` ``images`` views
    C-contiguous ``(batch, h, w, channels)`` memory (a conv GEMM's output),
    else ``"nchw"`` (any other strides are gathered from an NCHW copy)."""
    nhwc = images.transpose(0, 2, 3, 1).flags.c_contiguous
    return "nhwc" if nhwc and not images.flags.c_contiguous else "nchw"


def _in_memory_order(images: np.ndarray, layout: str) -> np.ndarray:
    """``(batch, channels, h, w)`` ``images`` with axes in memory order."""
    return images.transpose(0, 2, 3, 1) if layout == "nhwc" else images


def _halo(image_shape, layout: str, padding, fill, dtype) -> np.ndarray:
    """``(batch, channels, h + 2·ph, w + 2·pw)`` view of fresh ``layout``
    memory with every cell set to ``fill``."""
    batch, channels, height, width = image_shape
    spatial = (height + 2 * padding[0], width + 2 * padding[1])
    if layout == "nhwc":
        memory = np.full((batch,) + spatial + (channels,), fill, dtype=dtype)
        return memory.transpose(0, 3, 1, 2)
    return np.full((batch, channels) + spatial, fill, dtype=dtype)


@functools.lru_cache(maxsize=64)
def window_index(
    layout: str, channels: int, height: int, width: int, kernel, stride,
    per_channel: bool,
) -> np.ndarray:
    """Read-only flat index of one image's patch cells, cached.

    ``height`` / ``width`` are the (halo-padded) source's, and offsets
    address its memory in ``layout`` order.  Entries run over
    ``(out_h, out_w, channels, kh, kw)`` — conv rows ``(oy, ox)`` by
    columns ``(c, y, x)`` — or, with ``per_channel``, over
    ``(channels, out_h, out_w, kh, kw)``: pooling folds the channel into
    the rows.  The batch size is not part of the key, so training blocks
    of any row count and evaluation batches share one entry.
    """
    out_h, out_w = output_hw((height, width), kernel, stride, (0, 0))
    c, oy, ox, y, x = np.ogrid[:channels, :out_h, :out_w, : kernel[0], : kernel[1]]
    ys, xs = stride[0] * oy + y, stride[1] * ox + x
    if layout == "nhwc":
        index = (ys * width + xs) * channels + c
    else:
        index = (c * height + ys) * width + xs
    if not per_channel:
        index = index.transpose(1, 2, 0, 3, 4)
    index = np.ascontiguousarray(index, dtype=np.intp).ravel()
    index.flags.writeable = False
    return index


def im2col(
    images: np.ndarray, kernel, stride, padding, fill: float = 0.0,
    per_channel: bool = False,
) -> np.ndarray:
    """The C-contiguous ``(batch·out_h·out_w, channels·kh·kw)`` matrix
    whose rows are the receptive fields of ``(batch, channels, h, w)``
    ``images`` (NCHW or NHWC memory, read in place when unpadded), padded
    with ``fill``; ``per_channel`` pools each channel on its own, giving
    ``(batch·channels·out_h·out_w, kh·kw)``."""
    batch, channels, height, width = images.shape
    kh, kw = kernel
    ph, pw = padding
    layout = memory_layout(images)
    if ph == 0 and pw == 0:
        memory = np.ascontiguousarray(_in_memory_order(images, layout))
    else:
        halo = _halo(images.shape, layout, padding, fill, images.dtype)
        halo[:, :, ph : ph + height, pw : pw + width] = images
        memory = _in_memory_order(halo, layout)
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    index = window_index(
        layout, channels, padded_h, padded_w, kernel, stride, per_channel
    )
    cols = np.take(
        memory.reshape(batch, channels * padded_h * padded_w), index, axis=1
    )
    return cols.reshape(-1, kh * kw if per_channel else channels * kh * kw)


def col2im(
    cols: np.ndarray, image_shape, kernel, stride, padding,
    channels_last: bool = False,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into images.

    Overlapping patches accumulate, which is exactly the gradient of
    :func:`im2col`.  Every element starts at ``+0.0`` and adds its
    contributions in window-offset ``(y, x)`` order, whatever the
    buffer's layout: ``channels_last`` accumulates into NHWC memory (the
    layout the input-grad GEMM's rows come in, and the one a conv's
    forward input had), returned as its ``(batch, channels, h, w)`` view.
    """
    batch, channels, height, width = image_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = output_hw(image_shape, kernel, stride, padding)

    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw).transpose(
        0, 3, 4, 5, 1, 2
    )
    layout = "nhwc" if channels_last else "nchw"
    padded = _halo(image_shape, layout, padding, 0, cols.dtype)
    for y in range(kh):
        y_end = y + sh * out_h
        for x in range(kw):
            x_end = x + sw * out_w
            padded[:, :, y:y_end:sh, x:x_end:sw] += cols[:, :, y, x, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + height, pw : pw + width]


def max_pool(images: np.ndarray, kernel, stride, padding) -> tuple:
    """``(output, argmax, layout)``: the ``(batch, channels, out_h,
    out_w)`` window maxima, plus what :func:`max_pool_backward` needs —
    each window's argmax and the input's :func:`memory_layout`.

    Padded cells hold ``-inf``, so they win only a window whose real
    cells are all ``-inf`` (:func:`numpy.argmax`'s rules: the first
    occurrence wins ties, NaN beats everything)."""
    cols = im2col(images, kernel, stride, padding, -np.inf, per_channel=True)
    argmax = cols.argmax(axis=1)
    rows, window = cols.shape
    values = cols.reshape(-1).take(argmax + window * np.arange(rows))
    shape = images.shape[:2] + output_hw(images.shape, kernel, stride, padding)
    return values.reshape(shape), argmax, memory_layout(images)


def max_pool_backward(
    grad_output: np.ndarray, argmax: np.ndarray, image_shape, layout: str,
    kernel, stride, padding,
) -> np.ndarray:
    """Adjoint of :func:`max_pool`: each window's gradient lands on its
    argmax cell of a zero gradient laid out like the forward input
    (``layout``).  Every cell starts at ``+0.0`` and adds its windows'
    gradients in :func:`col2im`'s window-offset order, so this equals
    ``col2im`` of the one-hot gradient columns bit for bit (their
    ``+0.0`` entries never change a sum that started at ``+0.0``)."""
    batch, channels, height, width = image_shape
    kh, kw = kernel
    ph, pw = padding
    window = kh * kw
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    index = window_index(
        layout, channels, padded_h, padded_w, kernel, stride, True
    )
    per_image = index.size // window
    halo = _halo(image_shape, layout, padding, 0, grad_output.dtype)
    memory = _in_memory_order(halo, layout)
    cells = index.take(
        argmax.reshape(batch, per_image) + window * np.arange(per_image)
    )
    cells += (channels * padded_h * padded_w) * np.arange(batch)[:, None]
    cells = cells.reshape(-1)
    grads = grad_output.reshape(-1)
    flat = memory.reshape(-1)
    if stride[0] >= kh and stride[1] >= kw:
        # Disjoint windows: each cell takes at most one gradient.
        flat[cells] = grads + 0.0
    else:
        # A cell's windows in descending (oy, ox) — reversed row order —
        # are its windows in ascending offset (y, x): col2im's order.
        np.add.at(flat, cells[::-1], grads[::-1])
    return halo[:, :, ph : ph + height, pw : pw + width]

