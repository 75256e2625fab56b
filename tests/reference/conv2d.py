"""Direct loop convolution: what ``repro.nn.functional.conv2d``'s im2col
path is checked against (``tests/test_nn_functional.py``)."""

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
