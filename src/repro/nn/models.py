"""Model zoo: the paper's three evaluation networks plus fast variants.

The paper (Table II) trains MNIST-CNN, CIFAR10-CNN and ResNet-20.  Our
ResNet-20 (option-A shortcuts, as in He et al. for CIFAR) matches the
paper's parameter count *exactly* (269,722).  The two FedAvg-style CNNs
follow the same two-conv/two-FC family as McMahan et al.; see
EXPERIMENTS.md for the parameter-count comparison.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from repro.nn.module import Identity, Module, Sequential
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import SeedLike, as_generator


class MLP(Sequential):
    """Configurable multi-layer perceptron for fast simulation runs."""

    def __init__(
        self,
        in_features: int,
        hidden: List[int],
        num_classes: int,
        rng: SeedLike = None,
        dtype: DTypeLike = None,
    ) -> None:
        rng = as_generator(rng)
        dtype = resolve_dtype(dtype)
        layers: List[Module] = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng=rng, dtype=dtype))
            layers.append(ReLU())
            previous = width
        layers.append(Linear(previous, num_classes, rng=rng, dtype=dtype))
        super().__init__(*layers)
        self.in_features = in_features
        self.num_classes = num_classes


class TinyCNN(Sequential):
    """Small CNN used by fast experiments and tests (input: (c, s, s))."""

    def __init__(
        self,
        in_channels: int = 1,
        image_size: int = 8,
        num_classes: int = 10,
        width: int = 8,
        rng: SeedLike = None,
        dtype: DTypeLike = None,
    ) -> None:
        rng = as_generator(rng)
        dtype = resolve_dtype(dtype)
        pooled = image_size // 2
        super().__init__(
            Conv2d(in_channels, width, 3, padding=1, rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Conv2d(width, width * 2, 3, padding=1, rng=rng, dtype=dtype),
            ReLU(),
            GlobalAvgPool2d(),
            Linear(width * 2, num_classes, rng=rng, dtype=dtype),
        )
        self.in_channels = in_channels
        self.image_size = image_size
        self.num_classes = num_classes
        del pooled  # documented layout; GlobalAvgPool makes it size-agnostic


class MnistCNN(Sequential):
    """MNIST-CNN: the McMahan-style 2×conv(5×5) + 2×FC architecture.

    Input ``(1, 28, 28)``.  Structure follows the FedAvg paper the authors
    cite ([35]): conv32-pool-conv64-pool-FC512-FC10 with 'same' padding.
    """

    def __init__(self, rng: SeedLike = None, dtype: DTypeLike = None) -> None:
        rng = as_generator(rng)
        dtype = resolve_dtype(dtype)
        super().__init__(
            Conv2d(1, 32, 5, padding=2, rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Conv2d(32, 64, 5, padding=2, rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(64 * 7 * 7, 512, rng=rng, dtype=dtype),
            ReLU(),
            Linear(512, 10, rng=rng, dtype=dtype),
        )
        self.num_classes = 10


class Cifar10CNN(Sequential):
    """CIFAR10-CNN: same family for ``(3, 32, 32)`` inputs."""

    def __init__(self, rng: SeedLike = None, dtype: DTypeLike = None) -> None:
        rng = as_generator(rng)
        dtype = resolve_dtype(dtype)
        super().__init__(
            Conv2d(3, 32, 5, padding=2, rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Conv2d(32, 64, 5, padding=2, rng=rng, dtype=dtype),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(64 * 8 * 8, 512, rng=rng, dtype=dtype),
            ReLU(),
            Linear(512, 10, rng=rng, dtype=dtype),
        )
        self.num_classes = 10


class _PadChannelShortcut(Module):
    """Option-A ResNet shortcut: stride-2 subsample + zero-pad channels.

    Parameter-free, which is what makes ResNet-20 land on exactly 269,722
    trainable parameters.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int) -> None:
        super().__init__()
        if out_channels < in_channels:
            raise ValueError("option-A shortcut cannot shrink channels")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self._input_shape = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = inputs.shape
        subsampled = inputs[:, :, :: self.stride, :: self.stride]
        pad_total = self.out_channels - self.in_channels
        pad_front = pad_total // 2
        pad_back = pad_total - pad_front
        return np.pad(
            subsampled, ((0, 0), (pad_front, pad_back), (0, 0), (0, 0))
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        pad_total = self.out_channels - self.in_channels
        pad_front = pad_total // 2
        grad_sub = grad_output[
            :, pad_front : pad_front + self.in_channels, :, :
        ]
        grad_input = np.zeros(self._input_shape, dtype=grad_output.dtype)
        grad_input[:, :, :: self.stride, :: self.stride] = grad_sub
        return grad_input


class BasicBlock(Module):
    """Two 3×3 conv + BN layers with a residual connection."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: SeedLike = None,
        dtype: DTypeLike = None,
    ) -> None:
        super().__init__()
        rng = as_generator(rng)
        dtype = resolve_dtype(dtype)
        self.conv1 = self.register_module(
            "conv1",
            Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng, dtype=dtype),
        )
        self.bn1 = self.register_module("bn1", BatchNorm2d(out_channels, dtype=dtype))
        self.relu1 = self.register_module("relu1", ReLU())
        self.conv2 = self.register_module(
            "conv2",
            Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng, dtype=dtype),
        )
        self.bn2 = self.register_module("bn2", BatchNorm2d(out_channels, dtype=dtype))
        self.relu2 = self.register_module("relu2", ReLU())
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = self.register_module(
                "shortcut", _PadChannelShortcut(in_channels, out_channels, stride)
            )
        else:
            self.shortcut = self.register_module("shortcut", Identity())

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        residual = self.shortcut.forward(inputs)
        out = self.conv1.forward(inputs)
        out = self.bn1.forward(out)
        out = self.relu1.forward(out)
        out = self.conv2.forward(out)
        out = self.bn2.forward(out)
        return self.relu2.forward(out + residual)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_sum = self.relu2.backward(grad_output)
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_shortcut = self.shortcut.backward(grad_sum)
        return grad_main + grad_shortcut


class ResNetCIFAR(Module):
    """He et al.'s CIFAR ResNet at the paper's depth: three stages of
    three basic blocks, widths 16 / 32 / 64, 10 classes — ResNet-20 with
    269,722 trainable parameters, exactly the count in Table II.
    """

    def __init__(self, rng: SeedLike = None, dtype: DTypeLike = None) -> None:
        super().__init__()
        rng = as_generator(rng)
        dtype = resolve_dtype(dtype)
        blocks_per_stage, base_width = 3, 16
        self.depth = 6 * blocks_per_stage + 2
        self.conv1 = self.register_module(
            "conv1", Conv2d(3, base_width, 3, padding=1, bias=False, rng=rng, dtype=dtype)
        )
        self.bn1 = self.register_module("bn1", BatchNorm2d(base_width, dtype=dtype))
        self.relu = self.register_module("relu", ReLU())
        self.blocks: List[BasicBlock] = []
        widths = [base_width, base_width * 2, base_width * 4]
        in_channels = base_width
        for stage, width in enumerate(widths):
            for block_index in range(blocks_per_stage):
                stride = 2 if stage > 0 and block_index == 0 else 1
                block = BasicBlock(
                    in_channels, width, stride=stride, rng=rng, dtype=dtype
                )
                self.blocks.append(
                    self.register_module(f"stage{stage}_block{block_index}", block)
                )
                in_channels = width
        self.pool = self.register_module("pool", GlobalAvgPool2d())
        self.fc = self.register_module(
            "fc", Linear(widths[-1], 10, rng=rng, dtype=dtype)
        )
        self.num_classes = 10

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = self.relu.forward(self.bn1.forward(self.conv1.forward(inputs)))
        for block in self.blocks:
            out = block.forward(out)
        return self.fc.forward(self.pool.forward(out))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.pool.backward(self.fc.backward(grad_output))
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        return self.conv1.backward(self.bn1.backward(self.relu.backward(grad)))


def ResNet20(rng: SeedLike = None, dtype: DTypeLike = None) -> ResNetCIFAR:
    """The paper's ResNet-20 (269,722 parameters)."""
    return ResNetCIFAR(rng=rng, dtype=dtype)
