"""Per-worker passes of what ``src/`` only runs batched, kept as the
oracle the batched kernels are checked against.

Every model the CLI, a benchmark or an example builds with a
``MaxPool2d`` or ``Flatten`` compiles to the batched kernels of
``repro.nn.batched``, which are those layers' only implementation there.
The parity tests still run such a model one worker at a time:
:func:`per_worker` gives each of its ``MaxPool2d`` / ``Flatten`` layers
the forward / backward it had as a per-worker layer.  The passes are
bound on the layer *instances*, so the batched compiler (which matches
layer types exactly) still compiles the same model.

:func:`flat_grads` is a model's accumulated gradient as one vector, the
per-worker gradient the PSGD-family references average.
"""

from __future__ import annotations

from types import MethodType

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Flatten, MaxPool2d


def _max_pool_forward(layer, inputs: np.ndarray) -> np.ndarray:
    output, layer._argmax, layer._layout = F.max_pool(
        inputs, layer.kernel_size, layer.stride, layer.padding
    )
    layer._input_shape = inputs.shape
    return output


def _max_pool_backward(layer, grad_output: np.ndarray) -> np.ndarray:
    return F.max_pool_backward(
        grad_output, layer._argmax, layer._input_shape, layer._layout,
        layer.kernel_size, layer.stride, layer.padding,
    )


def _flatten_forward(layer, inputs: np.ndarray) -> np.ndarray:
    layer._input_shape = inputs.shape
    return inputs.reshape(inputs.shape[0], -1)


def _flatten_backward(layer, grad_output: np.ndarray) -> np.ndarray:
    return grad_output.reshape(layer._input_shape)


PASSES = {
    MaxPool2d: (_max_pool_forward, _max_pool_backward),
    Flatten: (_flatten_forward, _flatten_backward),
}


def per_worker(model):
    """``model`` (a layer or a whole model), with every ``MaxPool2d`` /
    ``Flatten`` in it able to run forward / backward on its own."""
    for module in model.modules():
        passes = PASSES.get(type(module))
        if passes is not None:
            module.forward = MethodType(passes[0], module)
            module.backward = MethodType(passes[1], module)
    return model


def flat_grads(model) -> np.ndarray:
    """``model``'s accumulated gradients as one fresh vector in its dtype
    (zeros for a parameter no backward pass reached)."""
    return np.concatenate([
        (param.grad if param.grad is not None else np.zeros_like(param.data)).reshape(-1)
        for param in model.parameters()
    ])
