"""Pure-numpy neural-network substrate.

Layer-wise backprop framework with the layers, losses, optimizers and
models the paper's evaluation needs.  The bridge to the distributed
algorithms is the flat-vector API on :class:`Module`
(:meth:`~repro.nn.Module.get_flat_params` /
:meth:`~repro.nn.Module.set_flat_params`).
"""

from repro.nn.module import Identity, Module, Parameter, Sequential
from repro.nn.arena import ParameterArena, shared_arena
from repro.nn.sharded import ShardedArena
from repro.nn.batched import (
    BatchedCrossEntropyLoss,
    BatchedLinear,
    BatchedReLU,
    BatchedSequential,
    build_batched_model,
)
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from repro.nn.activations import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.nn.optim import SGD, Optimizer
from repro.nn.models import (
    MLP,
    BasicBlock,
    Cifar10CNN,
    LogisticRegression,
    MnistCNN,
    ResNet20,
    ResNetCIFAR,
    TinyCNN,
    available_models,
    build_model,
)

__all__ = [
    "Module",
    "Parameter",
    "ParameterArena",
    "ShardedArena",
    "shared_arena",
    "BatchedCrossEntropyLoss",
    "BatchedLinear",
    "BatchedReLU",
    "BatchedSequential",
    "build_batched_model",
    "Sequential",
    "Identity",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "CrossEntropyLoss",
    "accuracy",
    "Optimizer",
    "SGD",
    "MLP",
    "LogisticRegression",
    "TinyCNN",
    "MnistCNN",
    "Cifar10CNN",
    "ResNet20",
    "ResNetCIFAR",
    "BasicBlock",
    "build_model",
    "available_models",
]
