"""Local training state of one simulated worker.

:class:`TrainingWorker` bundles a model replica, a data shard, a loss and
an optimizer — Algorithm 2's ``SGD(net, D_p, L)`` — and exposes the two
operations the distributed algorithms need: apply one local SGD step, or
just *compute* the gradient (for algorithms that average gradients before
stepping, like PSGD).

The per-worker loop here is the production compute path for every model
:meth:`repro.sim.cluster.ClusterTrainer.build` declines — ResNet-20's
BatchNorm + residual wiring — reached through the one seam in
:mod:`repro.algorithms.base`.  For every architecture the batched
kernels do cover (the MLP/logistic family and the TinyCNN / MnistCNN /
Cifar10CNN Conv/pool/Flatten chains) the batched step must
reproduce ``local_step`` bit for bit — enforced by
``tests/test_cluster_trainer.py``.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.data.loader import DataLoader
from repro.nn.arena import ParameterArena, shared_arena
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.utils import parallel
from repro.utils.dtypes import DTypeLike
from repro.utils.rng import SeedLike, as_generator


def bind_arena(
    workers: Sequence["TrainingWorker"], dtype: DTypeLike = None
) -> ParameterArena:
    """The arena whose rows ``0..n-1`` are ``workers``, in list order.

    Workers that already are such rows keep their arena.  Workers whose
    models are bound to no arena are adopted into a fresh one (``dtype``
    defaults to the models' own): every parameter becomes
    a view of its worker's row and each optimizer updates that row as
    one vector.  Anything in between — another arena, rows out of rank
    order, a partial binding — raises ``ValueError``, because every
    round indexes the replica matrix by rank.
    """
    models = [worker.model for worker in workers]
    arena = shared_arena(models)
    if arena is not None:
        return arena
    for rank, model in enumerate(models):
        if model._arena is not None:
            raise ValueError(
                f"worker {rank}'s model is bound to row {model._arena_rank} "
                f"of a {model._arena.num_workers}-row arena, but the "
                f"{len(models)} workers are not rows 0..{len(models) - 1} of "
                f"one arena in rank order; pass them bound to no arena "
                f"(they are adopted) or adopted in rank order"
            )
    arena = ParameterArena.adopt_models(models, dtype=dtype)
    for worker in workers:
        worker.optimizer.attach_flat_storage(
            worker.model._flat_view, worker.model._flat_grad_view
        )
    return arena


def evaluate_forward(
    forward: Callable[[np.ndarray], np.ndarray],
    dataset: Dataset,
    dtype,
    batch_size: int = 256,
    thread_forward: Optional[Callable[[], Callable[[np.ndarray], np.ndarray]]] = None,
) -> Tuple[float, float]:
    """``(mean_loss, top1_accuracy)`` of a logits function over a dataset.

    The one evaluation loop shared by :meth:`TrainingWorker.evaluate`
    and the batched consensus path
    (:meth:`repro.sim.cluster.ClusterTrainer.evaluate_vector`) — both
    must stay numerically identical, so the batching, loss accumulation
    and accuracy count live here once.  The dataset is cast once against
    ``dtype`` up front (a float64 validation set fed to a float32 model
    used to upcast every forward pass to a throwaway float64
    computation, batch by batch; no-op when the dtypes agree).

    ``thread_forward`` (optional) is a zero-argument factory returning a
    forward bound to the *calling thread's* private execution state.
    Model forwards cache activations on themselves, so a shared
    ``forward`` must never run batches concurrently — but a caller that
    can mint per-thread forwards (the :class:`ClusterTrainer`'s
    per-thread kernel chains) opts evaluation into the configured thread
    pool.  Batches are independent forwards; the float loss fold happens
    on the caller's thread in batch order, so the result is
    bit-identical to the serial loop at any thread count.
    """
    if dataset.features.dtype != dtype:
        dataset = dataset.astype(dtype)
    bounds = parallel.block_ranges(len(dataset), batch_size)

    def eval_batch(bound, batch_forward, loss_fn):
        start, stop = bound
        features = dataset.features[start:stop]
        labels = dataset.labels[start:stop]
        logits = batch_forward(features)
        loss, _ = loss_fn(logits, labels)
        return (
            loss * len(labels),
            int(np.sum(np.argmax(logits, axis=1) == labels)),
            len(labels),
        )

    if (
        thread_forward is not None
        and parallel.num_threads() > 1
        and len(bounds) > 1
    ):
        local = threading.local()

        def run(bound):
            if not hasattr(local, "forward"):
                local.forward = thread_forward()
                local.loss_fn = CrossEntropyLoss()
            return eval_batch(bound, local.forward, local.loss_fn)

        parts = parallel.parallel_map(run, bounds)
    else:
        loss_fn = CrossEntropyLoss()
        parts = [eval_batch(bound, forward, loss_fn) for bound in bounds]

    loss_sum = 0.0
    correct = 0
    total = 0
    # Batch-order fold: the same float additions, in the same order, as
    # the historical accumulate-in-loop — threads change nothing.
    for batch_loss, batch_correct, count in parts:
        loss_sum += batch_loss
        correct += batch_correct
        total += count
    return float(loss_sum / total), correct / total


class TrainingWorker:
    """One worker's local model, shard and optimizer.

    Parameters mirror the paper's Table II settings: batch size and
    learning rate are per-worker.
    """

    def __init__(
        self,
        rank: int,
        model: Module,
        shard: Dataset,
        batch_size: int,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        rng: SeedLike = None,
    ) -> None:
        self.rank = rank
        self.model = model
        self.loader = DataLoader(shard, batch_size, rng=as_generator(rng))
        self.loss_fn = CrossEntropyLoss()
        self.optimizer = SGD(
            model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.steps_taken = 0
        self.last_loss: Optional[float] = None

    # ------------------------------------------------------------------
    # local computation
    # ------------------------------------------------------------------
    def local_step(self) -> float:
        """One mini-batch SGD step on the local shard; returns the loss."""
        features, labels = self.loader.sample()
        self.model.train()
        self.model.zero_grad()
        logits = self.model.forward(features)
        loss, grad = self.loss_fn(logits, labels)
        self.model.backward(grad)
        self.optimizer.step()
        self.steps_taken += 1
        self.last_loss = loss
        return loss

    def compute_gradient(self) -> float:
        """Gradient of one sampled mini-batch at the current parameters,
        left in the model's gradients *without* applying it (for
        algorithms that average gradients before stepping, like PSGD);
        returns the loss."""
        features, labels = self.loader.sample()
        self.model.train()
        self.model.zero_grad()
        logits = self.model.forward(features)
        loss, grad = self.loss_fn(logits, labels)
        self.model.backward(grad)
        self.last_loss = loss
        return loss

    # ------------------------------------------------------------------
    # flat-vector access
    # ------------------------------------------------------------------
    def get_params(self) -> np.ndarray:
        """Flat model vector — a live arena-row view when arena-backed
        (zero-copy), a fresh copy otherwise.  Use
        :meth:`snapshot_params` when the result must survive updates."""
        return self.model.get_flat_params()

    def snapshot_params(self) -> np.ndarray:
        """Independent copy of the flat model, safe to hold across
        parameter updates regardless of arena backing (and without
        double-copying on the fallback path)."""
        flat = self.model._flat_view
        return flat.copy() if flat is not None else self.model.get_flat_params()

    def set_params(self, vector: np.ndarray) -> None:
        self.model.set_flat_params(vector)

    @property
    def model_size(self) -> int:
        return self.model.num_parameters()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset: Dataset, batch_size: int = 256) -> Tuple[float, float]:
        """``(mean_loss, top1_accuracy)`` of the current model on a
        dataset, in eval mode (cast once against the model dtype — see
        :func:`evaluate_forward`)."""
        self.model.eval()
        result = evaluate_forward(
            self.model.forward, dataset, self.model.dtype, batch_size
        )
        self.model.train()
        return result
