"""Stateless tensor ops: the conv and pooling window kernels.

Convolution is implemented with the standard im2col trick so the heavy
lifting is a single matrix multiply per layer — the only way to get usable
CNN throughput in pure numpy.  Every window kernel (per-worker and
batched, train and eval) builds its patch matrix with :func:`im2col`:
:func:`numpy.take` of a cached index that follows the input's memory
layout, from a halo of ``0`` (conv) or ``-inf`` (max-pool) when padded.
Only values move, so GEMMs and reductions see the operands they always
did (``tests/reference/conv2d.py`` keeps the kernels this replaced).
Given a ``workspace`` dict, every array they build lives in it.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

#: Column bytes per :func:`col2im` tile: its kh·kw adds re-read a 2 MiB L2.
COL2IM_TILE_BYTES = 512 << 10


def buffer(workspace: Optional[dict], name: str, shape, dtype) -> np.ndarray:
    """A fresh ``shape`` array, or a prefix of ``workspace[name]`` (a flat
    buffer grown on demand) valid until the next call for ``name``."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * math.prod(shape)
    flat = workspace.get(name)
    if flat is None or flat.size < nbytes:
        flat = workspace[name] = np.empty(nbytes, dtype=np.uint8)
    return flat[:nbytes].view(dtype).reshape(shape)


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


def _as_images(memory: np.ndarray, image_shape, layout: str) -> np.ndarray:
    """``image_shape`` images in contiguous ``layout`` ``memory``, viewed."""
    batch, channels, height, width = image_shape
    if layout == "nhwc":
        return memory.reshape(batch, height, width, channels).transpose(0, 3, 1, 2)
    return memory.reshape(image_shape)


def _halo(image_shape, layout: str, padding, fill, dtype,
          workspace: Optional[dict]) -> np.ndarray:
    """``(batch, channels, h + 2·ph, w + 2·pw)`` view of ``layout``
    memory (``workspace``'s ``"halo"``) with every cell set to ``fill``."""
    batch, channels, height, width = image_shape
    shape = (batch, channels, height + 2 * padding[0], width + 2 * padding[1])
    memory = buffer(workspace, "halo", (math.prod(shape),), dtype)
    memory.fill(fill)
    return _as_images(memory, shape, layout)


@functools.lru_cache(maxsize=64)
def window_index(
    layout: str, channels: int, height: int, width: int, kernel, stride,
    per_channel: bool,
) -> np.ndarray:
    """Read-only flat index of one image's patch cells, cached.

    ``height`` / ``width`` are the (halo-padded) source's, and offsets
    address its memory in ``layout`` order.  Entries run over
    ``(out_h, out_w, channels, kh, kw)`` — conv rows ``(oy, ox)`` by
    columns ``(c, y, x)`` — or, with ``per_channel``, over ``(kh, kw)``
    and then the pooled cells in ``layout`` order: one slab per window
    offset.  The batch size is not part of the key, so training blocks
    of any row count and evaluation batches share one entry.  Entries
    are range-checked here, once, so the gathers use ``mode="clip"``.
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
    else:
        index = index.transpose(3, 4, *((1, 2, 0) if layout == "nhwc" else (0, 1, 2)))
    index = np.ascontiguousarray(index, dtype=np.intp).ravel()
    if index.min() < 0 or index.max() >= channels * height * width:
        raise ValueError(f"window index leaves a {channels}x{height}x{width} image")
    index.flags.writeable = False
    return index


def im2col(
    images: np.ndarray, kernel, stride, padding, fill: float = 0.0,
    per_channel: bool = False, workspace: Optional[dict] = None,
) -> np.ndarray:
    """The C-contiguous ``(batch·out_h·out_w, channels·kh·kw)`` matrix
    whose rows are the receptive fields of ``(batch, channels, h, w)``
    ``images`` (NCHW or NHWC memory, read in place when unpadded), padded
    with ``fill``; ``per_channel`` pools each channel on its own, giving
    ``(kh·kw, batch, channels·out_h·out_w)`` slabs, cells in the input's
    layout order.  The result is ``workspace``'s ``"cols"``."""
    batch, channels, height, width = images.shape
    kh, kw = kernel
    ph, pw = padding
    layout = memory_layout(images)
    if ph == 0 and pw == 0:
        memory = np.ascontiguousarray(_in_memory_order(images, layout))
    else:
        halo = _halo(images.shape, layout, padding, fill, images.dtype, workspace)
        halo[:, :, ph : ph + height, pw : pw + width] = images
        memory = _in_memory_order(halo, layout)
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    index = window_index(
        layout, channels, padded_h, padded_w, kernel, stride, per_channel
    )
    source = memory.reshape(batch, -1)
    # "clip": window_index checked the range; "raise" would buffer ``out``.
    if per_channel:
        slabs = index.reshape(kh * kw, -1)
        cols = buffer(workspace, "cols", (kh * kw, batch, slabs.shape[1]), images.dtype)
        for slab, out in zip(slabs, cols):  # each slab read in memory order
            np.take(source, slab, axis=1, out=out, mode="clip")
        return cols
    cols = buffer(workspace, "cols", (batch, index.size), images.dtype)
    np.take(source, index, axis=1, out=cols, mode="clip")
    return cols.reshape(-1, channels * kh * kw)


def col2im(
    cols: np.ndarray, image_shape, kernel, stride, padding,
    channels_last: bool = False, workspace: Optional[dict] = None,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into images.

    Overlapping patches accumulate, which is exactly the gradient of
    :func:`im2col`.  Every element starts at ``+0.0`` and adds its
    contributions in window-offset ``(y, x)`` order, whatever the
    buffer's layout: ``channels_last`` accumulates into NHWC memory (the
    layout the input-grad GEMM's rows come in, and the one a conv's
    forward input had), returned as its ``(batch, channels, h, w)`` view
    of ``workspace``'s ``"halo"``.  The adds run over batch tiles of
    :data:`COL2IM_TILE_BYTES`, so the kh·kw passes re-read a tile from
    cache; no cell's order changes.
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
    padded = _halo(image_shape, layout, padding, 0, cols.dtype, workspace)
    tile = max(1, COL2IM_TILE_BYTES // max(cols[:1].nbytes, 1))
    for start in range(0, batch, tile):
        images, patches = padded[start : start + tile], cols[start : start + tile]
        for y in range(kh):
            y_end = y + sh * out_h
            for x in range(kw):
                x_end = x + sw * out_w
                images[:, :, y:y_end:sh, x:x_end:sw] += patches[:, :, y, x]
    return padded[:, :, ph : ph + height, pw : pw + width]


@functools.lru_cache(maxsize=16)
def _arange(size: int) -> np.ndarray:
    values = np.arange(size)
    values.flags.writeable = False
    return values


def max_pool(
    images: np.ndarray, kernel, stride, padding,
    workspace: Optional[dict] = None,
) -> tuple:
    """``(output, argmax, layout)``: the ``(batch, channels, out_h,
    out_w)`` window maxima, each window's argmax (the smallest signed
    dtype that holds kh·kw − 1) and the :func:`memory_layout` all three
    share.  kh·kw − 1 compare-select passes keep :func:`numpy.argmax`'s
    rules: a strictly greater candidate wins, so does the first NaN, and
    padded cells hold ``-inf``.  The maxima are gathered from the
    winners, so they hold their bits (a zero's sign, a NaN's payload)."""
    candidates = im2col(images, kernel, stride, padding, -np.inf, True, workspace)
    window, size = candidates.shape[0], candidates[0].size
    slabs = candidates.reshape(window, size)
    values = buffer(workspace, "values", (size,), images.dtype)
    # -window fits the smallest signed dtype that holds window - 1.
    argmax = buffer(workspace, "argmax", (size,), np.min_scalar_type(-window))
    offsets = buffer(workspace, "offsets", (size,), argmax.dtype)
    beaten, wins = buffer(workspace, "masks", (2, size), np.bool_)
    np.copyto(values, slabs[0])
    argmax.fill(0)
    for offset, candidate in enumerate(slabs[1:], 1):
        np.less_equal(candidate, values, out=beaten)
        np.equal(values, values, out=wins)  # the running max is not NaN
        np.greater(wins, beaten, out=wins)
        # Offsets only grow, so the winner's is the larger one.
        np.multiply(wins.view(np.int8), argmax.dtype.type(offset), out=offsets)
        np.maximum(argmax, offsets, out=argmax)
        np.maximum(values, candidate, out=values)  # NaN stays NaN
    positions = buffer(workspace, "positions", (size,), np.intp)
    np.multiply(argmax, np.intp(size), out=positions)
    positions += _arange(size)
    np.take(candidates.reshape(-1), positions, out=values, mode="clip")
    layout = memory_layout(images)
    shape = images.shape[:2] + output_hw(images.shape, kernel, stride, padding)
    views = (_as_images(array, shape, layout) for array in (values, argmax))
    return (*views, layout)


def max_pool_backward(
    grad_output: np.ndarray, argmax: np.ndarray, image_shape, layout: str,
    kernel, stride, padding, workspace: Optional[dict] = None,
) -> np.ndarray:
    """Adjoint of :func:`max_pool`: each window's gradient lands on its
    argmax cell of a zero gradient laid out like the forward input
    (``layout``), a view of ``workspace``'s ``"halo"``.  Every cell starts
    at ``+0.0`` and adds its windows' gradients in :func:`col2im`'s
    window-offset order, so this equals ``col2im`` of the one-hot
    gradient columns bit for bit (their ``+0.0`` entries never change a
    sum that started at ``+0.0``)."""
    batch, channels, height, width = image_shape
    kh, kw = kernel
    ph, pw = padding
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    index = window_index(
        layout, channels, padded_h, padded_w, kernel, stride, True
    )
    per_image = index.size // (kh * kw)
    halo = _halo(image_shape, layout, padding, 0, grad_output.dtype, workspace)
    # In memory order, window p's winner is index[argmax·per_image + p];
    # the forward's spent buffers take positions, cells and gradients.
    positions = buffer(workspace, "positions", (batch, per_image), np.intp)
    winners = _in_memory_order(argmax, layout).reshape(batch, per_image)
    np.multiply(winners, np.intp(per_image), out=positions)
    positions += _arange(per_image)
    cells = buffer(workspace, "cols", (batch, per_image), np.intp)
    np.take(index, positions, out=cells, mode="clip")
    cells += (channels * padded_h * padded_w) * np.arange(batch)[:, None]
    grads = buffer(workspace, "values", (batch, per_image), grad_output.dtype)
    grad_output = grad_output.reshape((batch,) + grad_output.shape[-3:])
    np.copyto(_as_images(grads, grad_output.shape, layout), grad_output)
    # Reversed, a cell's windows run in ascending offset: col2im's order.
    flat = _in_memory_order(halo, layout).reshape(-1)
    np.add.at(flat, cells.reshape(-1)[::-1], grads.reshape(-1)[::-1])
    return halo[:, :, ph : ph + height, pw : pw + width]
