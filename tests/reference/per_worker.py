"""Per-worker passes of what ``src/`` only runs stacked, kept as the
oracle the cluster trainer and its batched kernels are checked against.

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

The local step itself, one worker at a time: :func:`sample_batch` (one
draw of the worker's loader), :func:`sample_gradient` (one mini-batch
through the worker's own module), :func:`sgd_step` (the
optimizer's update one parameter at a time, momentum held per
parameter), :func:`local_step` (both) and :func:`evaluate`.
:class:`PerWorkerTrainer` puts them behind the
:class:`~repro.sim.cluster.ClusterTrainer` calls the algorithms make, for
``reference.per_model.per_worker_compute``.
"""

from __future__ import annotations

import weakref
from types import MethodType

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Flatten, MaxPool2d
from repro.nn.losses import CrossEntropyLoss
from repro.sim.trainer import evaluate_forward


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


#: Each optimizer's per-parameter momentum buffers (None until the first
#: momentum step of that parameter).
VELOCITIES = weakref.WeakKeyDictionary()


def sgd_step(optimizer) -> None:
    """One update of ``optimizer.parameters`` from their gradients,
    parameter by parameter: decay into the gradient, velocity update,
    scaled subtraction.  A parameter without a gradient is skipped."""
    velocities = VELOCITIES.setdefault(
        optimizer, [None] * len(optimizer.parameters)
    )
    for index, param in enumerate(optimizer.parameters):
        if param.grad is None:
            continue
        grad = param.grad
        if optimizer.weight_decay:
            grad = grad + optimizer.weight_decay * param.data
        if optimizer.momentum:
            velocity = velocities[index]
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = optimizer.momentum * velocity + grad
            velocities[index] = velocity
            if optimizer.nesterov:
                grad = grad + optimizer.momentum * velocity
            else:
                grad = velocity
        if param.arena_backed:
            # Arena views are updated in place (rebinding would detach
            # the parameter from its worker's row).
            param.data -= optimizer.lr * grad
        else:
            param.data = param.data - optimizer.lr * grad


def flat_velocity(worker) -> np.ndarray:
    """The worker's momentum buffers as one row (zeros before any)."""
    velocities = VELOCITIES.get(worker.optimizer) or [None]
    if all(velocity is None for velocity in velocities):
        return np.zeros(worker.model_size, worker.model.dtype)
    return np.concatenate([velocity.ravel() for velocity in velocities])


def sample_batch(loader):
    """``(features, labels)`` of one batch of ``loader``: distinct rows
    within a batch, with replacement across calls."""
    indices = loader._rng.choice(
        len(loader.dataset), size=loader.batch_size, replace=False
    )
    return loader.dataset.features[indices], loader.dataset.labels[indices]


def sample_gradient(worker) -> float:
    """The gradient of one sampled mini-batch at the worker's current
    parameters, left in its model's gradients; returns the loss."""
    features, labels = sample_batch(worker.loader)
    worker.model.train()
    worker.model.zero_grad()
    loss, grad = CrossEntropyLoss()(worker.model.forward(features), labels)
    worker.model.backward(grad)
    worker.last_loss = loss
    return loss


def local_step(worker) -> float:
    """One mini-batch SGD step on the worker's shard; returns the loss."""
    loss = sample_gradient(worker)
    sgd_step(worker.optimizer)
    worker.steps_taken += 1
    return loss


def evaluate(worker, dataset, batch_size=256):
    """``(mean_loss, top1_accuracy)`` of the worker's model, in eval mode."""
    worker.model.eval()
    result = evaluate_forward(
        worker.model.forward, dataset, worker.model.dtype, batch_size
    )
    worker.model.train()
    return result


class PerWorkerTrainer:
    """The trainer calls an algorithm makes, run one worker at a time."""

    #: No kernel chain and no velocity matrix: momentum lives per
    #: parameter, and asynchronous families never step ahead.
    net = None
    _velocity = None

    def __init__(self, workers) -> None:
        self.workers = list(workers)

    def batched_steps(self, k, ranks=None) -> np.ndarray:
        ranks = range(len(self.workers)) if ranks is None else ranks
        return np.array(
            [[local_step(self.workers[rank]) for _ in range(k)] for rank in ranks]
        )

    def batched_steps_gather(self, k, gather_indices):
        losses = self.batched_steps(k)
        return losses, np.stack(
            [worker.get_params()[gather_indices] for worker in self.workers]
        )

    def compute_gradients(self, ranks=None) -> np.ndarray:
        ranks = range(len(self.workers)) if ranks is None else ranks
        return np.array([sample_gradient(self.workers[rank]) for rank in ranks])

    def evaluate_vector(self, vector, dataset, batch_size=256):
        probe = self.workers[0]
        saved = probe.snapshot_params()
        probe.set_params(vector)
        result = evaluate(probe, dataset, batch_size)
        probe.set_params(saved)
        return result
