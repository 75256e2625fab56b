"""Cluster-level batched local SGD: one engine step for all workers.

:class:`ClusterTrainer` replaces the hot-path Python loop of n
independent :meth:`~repro.sim.trainer.TrainingWorker.local_step` calls
with a handful of matrix operations over the shared
:class:`~repro.nn.arena.ParameterArena`:

1. **Stacked sampling** — one RNG draw per worker through the worker's
   *own* :class:`~repro.data.loader.DataLoader` (stream-identical to the
   per-worker loop, churn included), stacked into an ``(n, B, d)`` batch
   tensor (``(n, B, c, h, w)`` for the conv-family models).
2. **Batched forward/backward** — a :class:`~repro.nn.batched.BatchedSequential`
   compiled over the arena's weight views (see :mod:`repro.nn.batched`),
   so gradients land directly in ``arena.grads``.
3. **Matrix optimizer update** — SGD with optional momentum / Nesterov /
   weight decay applied to ``arena.data`` as whole-matrix operations,
   with momentum state held as one ``(n, N)`` velocity matrix.

The batched step is **bit-identical** to the per-worker loop (enforced
by ``tests/test_cluster_trainer.py``): each worker's GEMMs run through
the same BLAS kernels on the same operands, element-wise ops are
shape-blind, and the optimizer algebra is replayed in the loop's
evaluation order.  :meth:`batched_steps` amortizes ``k`` local steps
between communication rounds; :meth:`compute_gradients` is the batched
analogue of :meth:`~repro.sim.trainer.TrainingWorker.compute_gradient`
for gradient-averaging algorithms; :meth:`evaluate_vector` forwards an
arbitrary flat model (e.g. the consensus average) through the batched
kernels without borrowing and restoring a worker replica.

:meth:`ClusterTrainer.build` returns ``None`` whenever exact
equivalence cannot be guaranteed — no shared arena, a layer without a
batched kernel (batch norm, residual wiring), heterogeneous batch sizes
or optimizer hyperparameters, pre-existing per-worker momentum state —
and the algorithms' compute seam (:mod:`repro.algorithms.base`) keeps the
per-worker loop, which the equivalence tests also diff against.
Linear/Conv2d/pooling/Flatten chains all compile, so the TinyCNN and
MnistCNN/Cifar10CNN presets ride the batched path alongside the MLP
family.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.data.datasets import Dataset
from repro.data.loader import DataLoader
from repro.nn.arena import ParameterArena, shared_arena
from repro.nn.batched import (
    BatchedConv2d,
    BatchedCrossEntropyLoss,
    BatchedFlatten,
    BatchedGlobalAvgPool2d,
    BatchedMaxPool2d,
    build_batched_model,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.sim.trainer import TrainingWorker, evaluate_forward
from repro.utils import parallel


class _ExecContext:
    """One thread's private execution state for block passes.

    The batched kernels cache forward state on themselves (inputs, cols,
    masks) and the trainer reuses sampling/update buffers — state that
    must not be shared between concurrently executing blocks.  Each
    worker thread therefore gets its own kernel chain (views into the
    *same* arena — building one is cheap, reshaped slices only), loss
    head and buffers; rows written through different contexts are
    disjoint, so the arena itself needs no locking.
    """

    __slots__ = ("net", "loss_fn", "feature_buf", "label_buf", "scratch")

    def __init__(self, net, loss_fn) -> None:
        self.net = net
        self.loss_fn = loss_fn
        self.feature_buf: Optional[np.ndarray] = None
        self.label_buf: Optional[np.ndarray] = None
        self.scratch: Optional[np.ndarray] = None

    def batch_buffers(self, count: int, feature_shape, feature_dtype,
                      label_dtype):
        """Persistent ``(count, B, ...)`` batch buffers, grown on demand."""
        if self.feature_buf is None or self.feature_buf.shape[0] < count:
            self.feature_buf = np.empty(
                (count,) + feature_shape, dtype=feature_dtype
            )
            self.label_buf = np.empty(
                (count, feature_shape[0]), dtype=label_dtype
            )
        return self.feature_buf[:count], self.label_buf[:count]

    def scratch_rows(self, count: int, model_size: int, dtype) -> np.ndarray:
        """Persistent ``(count, N)`` update scratch (grown on demand)."""
        if self.scratch is None or self.scratch.shape[0] < count:
            self.scratch = np.empty((count, model_size), dtype=dtype)
        return self.scratch[:count]


class ClusterTrainer:
    """Batched local-step engine over one arena's worth of workers."""

    def __init__(
        self,
        workers: Sequence[TrainingWorker],
        arena: ParameterArena,
        net,
    ) -> None:
        self.workers: List[TrainingWorker] = list(workers)
        self.arena = arena
        self.net = net
        self._batch_size = workers[0].loader.batch_size
        self.loss_fn = BatchedCrossEntropyLoss()
        optimizer = self.workers[0].optimizer
        self.momentum = optimizer.momentum
        self.weight_decay = optimizer.weight_decay
        self.nesterov = optimizer.nesterov
        #: ``(n, N)`` momentum state, allocated on first momentum update
        #: (hoisted before any parallel block dispatch — see
        #: :meth:`_run_pass` — so block threads never race the alloc).
        self._velocity: Optional[np.ndarray] = None
        #: Per-thread execution contexts (kernel chain + sampling/update
        #: buffers).  The building thread owns the primary context; pool
        #: threads get their own lazily (:meth:`_context`).  Keyed by
        #: thread ident — pool threads persist across calls, so contexts
        #: amortize over the run.
        self._contexts = {threading.get_ident(): _ExecContext(net, self.loss_fn)}
        self._context_lock = threading.Lock()
        #: Hoisted per-worker sampler bindings
        #: ``(rng.choice, features, labels, len, batch_size)`` — the
        #: sampling loop runs n times per step, so attribute chains are
        #: resolved once here.  Sound because a worker's loader keeps its
        #: generator and dataset for the lifetime of a run.
        self._samplers = [
            (
                worker.loader._rng.choice,
                worker.loader.dataset.features,
                worker.loader.dataset.labels,
                len(worker.loader.dataset),
                worker.loader.batch_size,
            )
            for worker in self.workers
        ]
        # Bind every parameter's grad to its arena view once: batched
        # backward writes into arena.grads, and the per-parameter API
        # (Parameter.grad, optimizer loops) must see those writes instead
        # of treating the segments as never-touched.
        for worker in self.workers:
            worker.model.zero_grad()
        #: Per-worker transient-workspace bytes (the conv/pool kernels'
        #: stacked patch matrices) — folded into the block-size
        #: computation so one block's weights *and* its patch workspace
        #: fit the cache budget together (:meth:`_block_rows`).
        self._workspace_bytes = self._workspace_bytes_per_worker()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        workers: Sequence[TrainingWorker],
        arena: Optional[ParameterArena] = None,
    ) -> Optional["ClusterTrainer"]:
        """A trainer for ``workers``, or ``None`` when the batched path
        cannot reproduce the per-worker loop exactly."""
        workers = list(workers)
        if not workers:
            return None
        if arena is None:
            arena = shared_arena([worker.model for worker in workers])
        if arena is None or arena.num_workers != len(workers):
            return None
        optimizers = [worker.optimizer for worker in workers]
        if any(type(optimizer) is not SGD for optimizer in optimizers):
            return None
        reference = optimizers[0]
        hyper = (reference.momentum, reference.weight_decay, reference.nesterov)
        if any(
            (opt.momentum, opt.weight_decay, opt.nesterov) != hyper
            for opt in optimizers[1:]
        ):
            return None
        # Per-parameter momentum state accumulated outside the trainer
        # would silently diverge from the (n, N) velocity matrix.
        if any(
            velocity is not None
            for optimizer in optimizers
            for velocity in optimizer._velocities
        ):
            return None
        if any(type(worker.loss_fn) is not CrossEntropyLoss for worker in workers):
            return None
        loaders = [worker.loader for worker in workers]
        if any(type(loader) is not DataLoader for loader in loaders):
            return None
        batch_size = loaders[0].batch_size
        if any(loader.batch_size != batch_size for loader in loaders):
            return None
        # Flat feature vectors (MLP/logistic) and (c, h, w) images (the
        # conv-family kernels) both stack into (n, B, ...) buffers.
        sample_shape = loaders[0].dataset.features.shape[1:]
        if len(sample_shape) not in (1, 3):
            return None
        feature_dtype = loaders[0].dataset.features.dtype
        label_dtype = loaders[0].dataset.labels.dtype
        if any(
            loader.dataset.features.shape[1:] != sample_shape
            or loader.dataset.features.dtype != feature_dtype
            or loader.dataset.labels.dtype != label_dtype
            for loader in loaders
        ):
            return None
        net = build_batched_model(arena)
        if net is None:
            return None
        return cls(workers, arena, net)

    # ------------------------------------------------------------------
    # batched local computation
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def _normalize_ranks(self, ranks):
        """A worker subset's rows, checked once: ``None`` for all, a
        ``slice`` for an ascending contiguous run (the zero-copy view
        path of full-cluster blocks), else an index array.  A rank that
        is not an integer in ``[0, n)`` or repeats raises ``ValueError``
        naming it; ``None`` and slices pass through as normalized."""
        if ranks is None or isinstance(ranks, slice):
            return ranks
        rows, n = np.asarray(ranks).ravel(), self.num_workers
        if rows.size == 0 or rows.dtype.kind not in "iu":
            raise ValueError(
                f"ranks must be one or more integers, got {ranks!r} (n = {n})"
            )
        start, stop = int(rows[0]), int(rows[-1]) + 1
        run = stop - start == rows.size and (
            rows.size == 1 or bool((np.diff(rows) == 1).all())
        )
        low, high = (start, stop - 1) if run else (rows.min(), rows.max())
        if low < 0 or high >= n:
            raise ValueError(
                f"rank {low if low < 0 else high} out of range for n = {n}"
            )
        if run:
            return None if rows.size == n else slice(start, stop)
        values, counts = np.unique(rows, return_counts=True)
        if values.size != rows.size:
            raise ValueError(f"rank {values[counts > 1][0]} repeated (n = {n})")
        return rows.astype(np.intp, copy=False)

    def _context(self) -> _ExecContext:
        """The calling thread's execution context (created on demand).

        The inline (single-thread) path always lands on the primary
        context created at construction; pool threads build their own
        kernel chain over the same arena once and keep it."""
        ident = threading.get_ident()
        ctx = self._contexts.get(ident)
        if ctx is None:
            net = build_batched_model(self.arena)
            assert net is not None, "batched model compiled at build time"
            ctx = _ExecContext(net, BatchedCrossEntropyLoss())
            with self._context_lock:
                self._contexts[ident] = ctx
        return ctx

    def _stacked_batch(self, rank_list: Sequence[int], ctx: _ExecContext):
        """One mini-batch per worker, stacked along a new worker axis.

        Each worker's indices come from its *own* loader RNG via the
        same ``choice`` call :meth:`DataLoader.sample` makes (stream
        identity, churn included); the features/labels are gathered
        straight into the context's persistent ``(n, B, d)`` buffers
        instead of stacking n freshly allocated batch arrays.  A worker
        belongs to exactly one block per pass, so its generator is never
        driven from two threads at once and each stream advances exactly
        as in the serial loop."""
        count = len(rank_list)
        loader = self.workers[0].loader
        dataset = loader.dataset
        features, labels = ctx.batch_buffers(
            count,
            (loader.batch_size,) + dataset.features.shape[1:],
            dataset.features.dtype,
            dataset.labels.dtype,
        )
        samplers = self._samplers
        for position, rank in enumerate(rank_list):
            choice, shard_features, shard_labels, length, batch = samplers[rank]
            indices = choice(length, size=batch, replace=False)
            shard_features.take(indices, axis=0, out=features[position])
            shard_labels.take(indices, axis=0, out=labels[position])
        return features, labels

    #: Target resident size of one execution block (rows × model bytes,
    #: plus the per-row transient workspace of the conv/pool kernels):
    #: big enough to amortize kernel dispatch, small enough that a
    #: block's weights/grads/activations stay cache-resident (read once
    #: for forward + backward + update) instead of streaming the full
    #: replica matrix through DRAM several times per step.  16 MB was
    #: the empirical sweet spot at n = 1024 on the bench MLP.
    BLOCK_BYTES = 16 << 20

    def _workspace_bytes_per_worker(self) -> int:
        """Per-worker bytes of the batched kernels' dominant transient
        buffers: the stacked patch matrices the conv and pooling kernels
        gather (and, for conv, cache through backward).

        Folding this into :meth:`_block_rows` is what keeps the conv
        path from materializing the full ``(n·B·L, C·kh·kw)`` patch
        matrix at large n: the block size shrinks until one block's
        weights *and* its patch workspace fit the byte budget together.
        Zero for the MLP family (no window kernels), so flat workloads
        keep their historical partition.
        """
        sample_shape = self.workers[0].loader.dataset.features.shape[1:]
        if len(sample_shape) != 3:
            return 0
        itemsize = self.workers[0].loader.dataset.features.dtype.itemsize
        batch = self._batch_size
        channels, height, width = sample_shape
        total = 0
        for kernel in self.net.kernels:
            if isinstance(kernel, BatchedConv2d):
                out_h, out_w = kernel._output_hw(height, width)
                kh, kw = kernel.kernel_size
                patch = batch * out_h * out_w * channels * kh * kw * itemsize
                # The forward cols are cached for backward, which builds
                # an equally sized grad_cols matrix: both are live at
                # once during the backward pass.
                total += 2 * patch
                channels, height, width = kernel.out_channels, out_h, out_w
            elif isinstance(kernel, BatchedMaxPool2d):
                out_h, out_w = kernel._output_hw(height, width)
                kh, kw = kernel.kernel_size
                total += batch * channels * out_h * out_w * kh * kw * itemsize
                height, width = out_h, out_w
            elif isinstance(kernel, BatchedGlobalAvgPool2d):
                height = width = 1
            elif isinstance(kernel, BatchedFlatten):
                break
        return total

    def _block_rows(self) -> int:
        per_worker = max(
            self.arena.model_size * self.arena.dtype.itemsize
            + self._workspace_bytes,
            1,
        )
        return max(1, self.BLOCK_BYTES // per_worker)

    def _forward_backward(
        self, row_sel, rank_list: Sequence[int], ctx: _ExecContext
    ) -> np.ndarray:
        """Sample + forward + backward for one row selection; gradients
        land in ``arena.grads`` (overwritten — no zero fill needed, each
        parameter is written exactly once per pass)."""
        features, labels = self._stacked_batch(rank_list, ctx)
        logits = ctx.net.forward(features, row_sel)
        losses, grad = obs.timed("compute.loss", ctx.loss_fn, logits, labels)
        ctx.net.backward(grad, row_sel)
        return losses

    def _run_pass(
        self,
        ranks,
        apply_update: bool,
        gather_indices: Optional[np.ndarray] = None,
        gather_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One sampled forward/backward pass for all (or ``ranks``)
        workers, optionally followed by the optimizer update.

        Both paths execute in worker blocks (:attr:`BLOCK_BYTES`) for
        cache locality, and the blocks run concurrently on the
        configured thread pool (:mod:`repro.utils.parallel`) — workers
        are independent and the partition is fixed by the byte budget,
        never by the thread count, so neither blocking nor threading
        changes any value.  ``gather_indices``/``gather_out`` implement
        the fused update+gather pass (full-cluster path only): each
        block's masked columns are read right after its update, while
        the block is cache-hot, into ``gather_out`` — bit-identical to
        gathering from the full matrix afterwards.  Returns the
        per-worker losses and records each worker's ``last_loss`` (and
        ``steps_taken`` when updating), mirroring the per-worker loop.
        """
        rows = self._normalize_ranks(ranks)
        # Hoisted allocation: block threads must never race the (n, N)
        # velocity alloc.
        if apply_update and self.momentum and self._velocity is None:
            self._velocity = np.zeros_like(self.arena.data)
        block = self._block_rows()
        # A contiguous run is the full-cluster path shifted by its start.
        offset, rank_of = 0, None
        if rows is None:
            total = self.num_workers
        elif isinstance(rows, slice):
            offset, total = rows.start, rows.stop - rows.start
        else:
            total = rows.size
            rank_of = rows.tolist()
        if gather_indices is not None and (rows is not None or not apply_update):
            raise ValueError(
                "fused gather requires a full-cluster update pass"
            )
        bounds = parallel.block_ranges(total, block)
        losses = np.empty(total, dtype=np.float64)

        def run_block(bound) -> None:
            start, stop = bound
            ctx = self._context()
            if rank_of is None:
                selection = slice(offset + start, offset + stop)
                block_ranks = range(offset + start, offset + stop)
            else:
                selection = rows[start:stop]
                block_ranks = rank_of[start:stop]
            losses[start:stop] = self._forward_backward(
                selection, block_ranks, ctx
            )
            if apply_update:
                self._apply_update(selection, ctx)
                if gather_indices is not None:
                    # Fused gather: the block's rows were just updated
                    # and are cache-hot; read their masked columns now
                    # instead of re-streaming the whole matrix later.
                    np.take(
                        self.arena.data[selection],
                        gather_indices,
                        axis=1,
                        out=gather_out[selection],
                    )

        # Phase attribution: the pass as one "compute" span on the
        # calling thread; each block additionally timed as
        # "compute.block" on whichever pool thread ran it (per-thread
        # wall-time lanes in the trace).
        with obs.phase("compute"):
            parallel.parallel_map(run_block, bounds, phase="compute.block")
        step_workers = (
            self.workers[offset:offset + total] if rank_of is None
            else [self.workers[rank] for rank in rank_of]
        )
        # tolist() hands back exact python floats in one C pass (same
        # values worker.local_step would have returned).
        for worker, loss in zip(step_workers, losses.tolist()):
            if apply_update:
                worker.steps_taken += 1
            worker.last_loss = loss
        return losses

    def step(self, ranks=None) -> np.ndarray:
        """One mini-batch SGD step for all (or ``ranks``) workers at once.

        Returns the per-worker losses, in ``ranks`` order (float64, each
        entry exactly what ``worker.local_step()`` would have returned).
        """
        return self._run_pass(ranks, apply_update=True)

    def batched_steps(self, k: int, ranks=None) -> np.ndarray:
        """``k`` local steps amortized between communication rounds.

        Returns a ``(len(ranks), k)`` loss matrix whose C-order flatten
        is worker-major — the exact order the per-worker
        ``for worker: for step:`` loop emits, so round-loss averages
        match the loop bit for bit.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rows = self._normalize_ranks(ranks)
        first = self.step(rows)
        losses = np.empty((first.size, k), dtype=np.float64)
        losses[:, 0] = first
        for step_index in range(1, k):
            losses[:, step_index] = self.step(rows)
        return losses

    def batched_steps_gather(
        self, k: int, gather_indices: np.ndarray
    ) -> tuple:
        """:meth:`batched_steps` fused with a post-update column gather.

        Runs ``k`` full-cluster local steps; on the *last* step each
        block's ``gather_indices`` columns are read immediately after
        that block's optimizer update, while the block is cache-hot —
        one pass over the arena instead of update-then-regather.  This
        is the SAPS fused round: the shared mask's surviving indices are
        known from the round seed before the local phase runs, so the
        compression gather rides the update pass.  Returns
        ``(losses, values)`` where ``losses`` matches
        :meth:`batched_steps` exactly and ``values`` is the
        ``(n, len(gather_indices))`` matrix bit-identical to
        ``arena.data[:, gather_indices]`` taken afterwards.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        gather_indices = np.asarray(gather_indices, dtype=np.intp)
        losses = np.empty((self.num_workers, k), dtype=np.float64)
        values = np.empty(
            (self.num_workers, gather_indices.size), dtype=self.arena.dtype
        )
        for step_index in range(k - 1):
            losses[:, step_index] = self.step()
        losses[:, k - 1] = self._run_pass(
            None, apply_update=True,
            gather_indices=gather_indices, gather_out=values,
        )
        return losses, values

    def compute_gradients(self, ranks=None) -> np.ndarray:
        """Batched :meth:`TrainingWorker.compute_gradient`: sample one
        mini-batch per worker and leave the gradients in ``arena.grads``
        (rows of workers outside ``ranks`` keep their previous content).
        Returns the per-worker losses without applying any update."""
        return self._run_pass(ranks, apply_update=False)

    # ------------------------------------------------------------------
    # the matrix optimizer update
    # ------------------------------------------------------------------
    def _apply_update(self, rows, ctx: _ExecContext) -> None:
        """SGD/momentum/weight-decay over whole arena rows.

        ``rows`` is ``None``, a slice (in-place on arena views) or an
        index array (gather/scatter).  Replays the per-parameter loop's
        evaluation order elementwise (decay into the gradient, velocity
        update, scaled subtraction), so the result is bit-identical to n
        independent optimizer steps.  The scratch buffer is the calling
        context's own (blocks running concurrently must not share it);
        the ``(n, N)`` velocity matrix *is* shared, but blocks touch
        disjoint rows.
        """
        arena = self.arena
        is_view = rows is None or isinstance(rows, slice)
        if rows is None:
            params = arena.data
            grads = arena.grads
            step_workers = self.workers
        elif is_view:
            params = arena.data[rows]
            grads = arena.grads[rows]
            step_workers = self.workers[rows]
        else:
            params = arena.data[rows]
            grads = arena.grads[rows]
            step_workers = [self.workers[rank] for rank in rows]
        scratch = ctx.scratch_rows(
            params.shape[0], arena.model_size, arena.dtype
        )
        rates = np.array(
            [worker.optimizer.lr for worker in step_workers], dtype=arena.dtype
        )[:, None]
        if self.weight_decay:
            # wd·X + G == G + wd·X exactly (IEEE addition commutes), so
            # the decayed gradient can build in the scratch buffer.
            np.multiply(params, self.weight_decay, out=scratch)
            scratch += grads
            grads = scratch
        if self.momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(arena.data)
            velocity = self._velocity[rows] if rows is not None else self._velocity
            velocity *= self.momentum
            velocity += grads
            if not is_view:
                self._velocity[rows] = velocity
            if self.nesterov:
                update = grads + self.momentum * velocity
            else:
                update = velocity
        else:
            update = grads
        np.multiply(update, rates, out=scratch)
        params -= scratch
        if not is_view:
            arena.data[rows] = params

    # ------------------------------------------------------------------
    # consensus evaluation
    # ------------------------------------------------------------------
    def evaluate_vector(
        self, vector: np.ndarray, dataset: Dataset, batch_size: int = 256
    ) -> tuple:
        """``(mean_loss, top1_accuracy)`` of one flat model vector.

        Forwards ``vector`` directly through the batched kernels' eval
        path — no worker replica is borrowed, mutated or restored.  Runs
        the same shared evaluation loop as
        :meth:`TrainingWorker.evaluate` (:func:`evaluate_forward`), cast
        once against the vector dtype.

        With threads configured, validation batches run concurrently:
        each pool thread forwards through its own kernel chain (the same
        per-thread contexts the block passes use), and the loss fold
        stays on the caller in batch order — bit-identical to serial.
        """
        vector = np.asarray(vector)

        def thread_forward():
            net = self._context().net
            return lambda features: net.forward_vector(vector, features)

        return evaluate_forward(
            lambda features: self.net.forward_vector(vector, features),
            dataset,
            vector.dtype,
            batch_size,
            thread_forward=thread_forward,
        )
