"""Trainable and structural layers: Linear, Conv2d, pooling, flatten, norm."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init as initializers
from repro.nn.module import Module, Parameter
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import SeedLike


class Linear(Module):
    """Fully-connected layer ``y = x Wᵀ + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
        dtype: DTypeLike = None,
    ) -> None:
        super().__init__()
        dtype = resolve_dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                initializers.kaiming_uniform(
                    (out_features, in_features), rng, dtype=dtype
                ),
                dtype=dtype,
            ),
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(initializers.zeros((out_features,), dtype), dtype=dtype)
            )
        self._input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (batch, {self.in_features}), got {inputs.shape}"
            )
        self._input = inputs
        output = inputs @ self.weight.data.T
        if self.bias is not None:
            output += self.bias.data
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.weight.accumulate_grad(grad_output.T @ self._input)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.weight.data


class Conv2d(Module):
    """2-D convolution via im2col; layout ``(batch, channels, h, w)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: SeedLike = None,
        dtype: DTypeLike = None,
    ) -> None:
        super().__init__()
        dtype = resolve_dtype(dtype)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F.pair(kernel_size)
        self.stride = F.pair(stride)
        self.padding = F.pair(padding)
        kh, kw = self.kernel_size
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                initializers.kaiming_uniform(
                    (out_channels, in_channels, kh, kw), rng, dtype=dtype
                ),
                dtype=dtype,
            ),
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(initializers.zeros((out_channels,), dtype), dtype=dtype)
            )
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (batch, {self.in_channels}, h, w), "
                f"got {inputs.shape}"
            )
        batch = inputs.shape[0]
        out_h, out_w = F.output_hw(
            inputs.shape, self.kernel_size, self.stride, self.padding
        )
        cols = F.im2col(inputs, self.kernel_size, self.stride, self.padding)
        self._cols = cols
        self._input_shape = inputs.shape

        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        output = cols @ weight_matrix.T
        if self.bias is not None:
            output += self.bias.data
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(
            -1, self.out_channels
        )
        weight_grad = (grad_matrix.T @ self._cols).reshape(self.weight.data.shape)
        self.weight.accumulate_grad(weight_grad)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_matrix.sum(axis=0))
        grad_cols = grad_matrix @ self.weight.data.reshape(self.out_channels, -1)
        # NCHW, not channels-last like the batched kernel: BatchNorm2d's
        # reductions downstream sum in memory order, so layout is floats.
        return F.col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )


class MaxPool2d(Module):
    """Max pooling (padded cells are ``-inf``:
    :func:`repro.nn.functional.max_pool`).  Every model holding one
    compiles to :class:`repro.nn.batched.BatchedMaxPool2d`, which runs it;
    the layer carries the window geometry."""

    def __init__(self, kernel_size, stride=None, padding=0) -> None:
        super().__init__()
        self.kernel_size = F.pair(kernel_size)
        self.stride = F.pair(stride if stride is not None else kernel_size)
        self.padding = F.pair(padding)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent: ``(b, c, h, w) → (b, c)``."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = inputs.shape
        return inputs.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        batch, channels, height, width = self._input_shape
        scale = 1.0 / (height * width)
        # Broadcast instead of materializing an input-sized ones array:
        # allocation-free (the view is read-only, which every consumer
        # tolerates) and bit-identical — multiplying by 1.0 was exact.
        return np.broadcast_to(
            (grad_output * scale)[:, :, None, None], self._input_shape
        )


class Flatten(Module):
    """Flatten all non-batch dimensions.  Every model holding one compiles
    to :class:`repro.nn.batched.BatchedFlatten`, which runs it."""


class BatchNorm2d(Module):
    """Batch normalization over ``(batch, h, w)`` per channel.

    Keeps running statistics for eval mode, like the framework the paper
    trained with.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        dtype: DTypeLike = None,
    ) -> None:
        super().__init__()
        dtype = resolve_dtype(dtype)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter(
            "gamma", Parameter(initializers.ones((num_features,), dtype), dtype=dtype)
        )
        self.beta = self.register_parameter(
            "beta", Parameter(initializers.zeros((num_features,), dtype), dtype=dtype)
        )
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self._cache = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (batch, {self.num_features}, h, w), "
                f"got {inputs.shape}"
            )
        if self.training:
            mean = inputs.mean(axis=(0, 2, 3))
            var = inputs.var(axis=(0, 2, 3))
            count = inputs.shape[0] * inputs.shape[2] * inputs.shape[3]
            unbiased = var * count / max(count - 1, 1)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * unbiased
            )
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.eps)
        normalized = (inputs - mean[None, :, None, None]) / std[None, :, None, None]
        self._cache = (normalized, std)
        return (
            self.gamma.data[None, :, None, None] * normalized
            + self.beta.data[None, :, None, None]
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, std = self._cache
        self.gamma.accumulate_grad((grad_output * normalized).sum(axis=(0, 2, 3)))
        self.beta.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))

        if not self.training:
            return (
                grad_output
                * self.gamma.data[None, :, None, None]
                / std[None, :, None, None]
            )

        count = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
        grad_norm = grad_output * self.gamma.data[None, :, None, None]
        mean_grad = grad_norm.mean(axis=(0, 2, 3), keepdims=True)
        mean_grad_norm = (grad_norm * normalized).mean(
            axis=(0, 2, 3), keepdims=True
        )
        return (
            grad_norm - mean_grad - normalized * mean_grad_norm
        ) / std[None, :, None, None]
