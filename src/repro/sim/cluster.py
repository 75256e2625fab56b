"""Cluster-level local SGD: one engine step for all workers.

:class:`ClusterTrainer` is the one local-compute route of every
worker-backed algorithm (Algorithm 2's ``SGD(net, D_p, L)``): a handful
of matrix operations over the shared
:class:`~repro.nn.arena.ParameterArena` stand in for n independent
per-worker steps.

1. **Stacked sampling** — one RNG draw per worker through the worker's
   *own* :class:`~repro.data.loader.DataLoader` (stream-identical to a
   per-worker draw, churn included), stacked into an
   ``(n, B, d)`` batch tensor (``(n, B, c, h, w)`` for images).
2. **Forward/backward** — a :class:`~repro.nn.batched.BatchedSequential`
   compiled over the arena's weight views (see :mod:`repro.nn.batched`),
   so gradients land directly in ``arena.grads``.  A model without a
   batched plan (batch norm, residual wiring: ResNet-20) has ``net =
   None``, and each row's own module runs on its slice of the stacked
   batch; its parameters are arena views, so its gradients land in the
   same place.
3. **Matrix optimizer update** — SGD with optional momentum / Nesterov /
   weight decay applied to ``arena.data`` as matrix operations on a
   fixed-byte chunk of rows at a time, with momentum state held as one
   ``(n, N)`` velocity matrix.

Every route is **bit-identical** to the per-worker loop kept as the
oracle in ``tests/reference/per_worker.py`` (``tests/test_cluster_trainer.py``):
each worker's GEMMs run through the same BLAS kernels on the same
operands, element-wise ops are shape-blind, and the optimizer algebra is
replayed in the loop's evaluation order.  :meth:`batched_steps`
amortizes ``k`` local steps between communication rounds;
:meth:`compute_gradients` leaves one mini-batch gradient per worker in
``arena.grads`` for gradient-averaging algorithms; :meth:`evaluate_vector`
forwards an arbitrary flat model (e.g. the consensus average).

:meth:`ClusterTrainer.build` refuses, with a ``ValueError`` naming the
field, workers that cannot be stacked: different batch sizes, optimizer
hyperparameters, feature shapes or dtypes.  Per-worker learning rates
are fine.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.data.datasets import Dataset
from repro.nn.arena import ParameterArena
from repro.nn.batched import (
    BatchedConv2d,
    BatchedCrossEntropyLoss,
    BatchedFlatten,
    BatchedGlobalAvgPool2d,
    BatchedMaxPool2d,
    BatchedReLU,
    build_batched_model,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.sim.trainer import TrainingWorker, bind_arena, evaluate_forward
from repro.utils import parallel


class _ExecContext:
    """One thread's private execution state for block passes.

    The batched kernels cache forward state on themselves (inputs, cols,
    masks) and the trainer reuses sampling/update buffers — state that
    must not be shared between concurrently executing blocks.  Each
    worker thread therefore gets its own kernel chain (views into the
    *same* arena — building one is cheap, reshaped slices only), loss
    head and buffers; rows written through different contexts are
    disjoint, so the arena itself needs no locking.  Without a kernel
    chain (``net`` None) the loss head is the per-row one.
    """

    __slots__ = ("net", "loss_fn", "feature_buf", "label_buf", "scratch")

    def __init__(self, net) -> None:
        self.net = net
        self.loss_fn = (
            CrossEntropyLoss() if net is None else BatchedCrossEntropyLoss()
        )
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
    """Local-step engine over one arena's worth of workers."""

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
        self._contexts = {threading.get_ident(): _ExecContext(net)}
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
        # (Parameter.grad) must see those writes instead of treating the
        # segments as never-touched.
        for worker in self.workers:
            worker.model.zero_grad()
        #: Per-worker workspace bytes, budgeted with the weights.
        self._workspace_bytes = self._workspace_bytes_per_worker()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, workers: Sequence[TrainingWorker]) -> "ClusterTrainer":
        """The trainer of ``workers``, which become rows ``0..n-1`` of one
        arena (:func:`~repro.sim.trainer.bind_arena`).

        Raises ``ValueError`` naming the first field in which a worker
        differs from worker 0 — batch size, momentum, weight decay,
        nesterov, feature shape or dtype — since every step runs all
        rows as one stack; and, for a model with no batched plan (each
        row's own module then runs), naming a layer that runs only
        inside one (``MaxPool2d``, ``Flatten``)."""
        workers = list(workers)
        arena = bind_arena(workers)
        expected = _stack_fields(workers[0])
        for worker in workers[1:]:
            for field, value in _stack_fields(worker).items():
                if value != expected[field]:
                    raise ValueError(
                        f"worker {worker.rank} has {field} {value!r} but "
                        f"worker {workers[0].rank} has {expected[field]!r}; "
                        f"local steps stack every worker, so they must agree"
                    )
        net = build_batched_model(arena)
        for worker in workers if net is None else ():
            for layer in worker.model.modules():
                if getattr(layer.forward, "__func__", None) is Module.forward:
                    raise ValueError(
                        f"worker {worker.rank}'s model has no batched plan, so "
                        f"its own layers run, but its {type(layer).__name__} "
                        f"runs only inside a batched plan"
                    )
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
            ctx = _ExecContext(build_batched_model(self.arena))
            with self._context_lock:
                self._contexts[ident] = ctx
        return ctx

    def _stacked_batch(self, rank_list: Sequence[int], ctx: _ExecContext):
        """One mini-batch per worker, stacked along a new worker axis.

        Each worker's indices come from its *own* loader RNG via the
        same ``choice`` call a per-worker draw makes (stream
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

    #: Byte budget of one execution block: its rows' weights plus their
    #: window-kernel workspaces.  It bounds what a step holds at once and
    #: amortizes dispatch; it is not cache-resident on a 2 MiB L2 (the
    #: kernels tile for that).  16 MiB was the empirical sweet spot at
    #: n = 1024 on the bench MLP.
    BLOCK_BYTES = 16 << 20

    def _workspace_bytes_per_worker(self) -> int:
        """Bytes a worker adds to the window kernels' warm workspaces
        (:mod:`repro.nn.batched`): per conv its halo, patch matrix and
        GEMM output; per max-pool its halo, candidate slabs, maxima,
        argmax, offsets, masks and positions; per ReLU on a feature map
        its mask.  The dense head's ReLU masks are left out, and the MLP
        family counts zero, so flat workloads keep their partition."""
        sample_shape = self.workers[0].loader.dataset.features.shape[1:]
        if len(sample_shape) != 3 or self.net is None:
            return 0
        itemsize = self.workers[0].loader.dataset.features.dtype.itemsize
        channels, height, width = sample_shape
        total = 0
        for kernel in self.net.kernels:
            if isinstance(kernel, (BatchedConv2d, BatchedMaxPool2d)):
                (kh, kw), (ph, pw) = kernel.kernel_size, kernel.padding
                out_h, out_w = kernel._output_hw(height, width)
                total += channels * (height + 2 * ph) * (width + 2 * pw) * itemsize
                height, width = out_h, out_w
            if isinstance(kernel, BatchedConv2d):  # patches, GEMM output
                cells = channels * kh * kw + kernel.out_channels
                total += out_h * out_w * cells * itemsize
                channels = kernel.out_channels
            elif isinstance(kernel, BatchedMaxPool2d):  # as listed above
                argmax = np.min_scalar_type(-kh * kw).itemsize
                per_cell = max(kh * kw * itemsize, 8) + itemsize + 2 * argmax + 2 + 8
                total += channels * out_h * out_w * per_cell
            elif isinstance(kernel, BatchedReLU):  # a bool mask
                total += channels * height * width
            elif isinstance(kernel, (BatchedGlobalAvgPool2d, BatchedFlatten)):
                break
        return total * self._batch_size

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
        if ctx.net is None:
            # No batched plan: each row's own module on its batch.
            losses = np.empty(len(rank_list), dtype=np.float64)
            for position, rank in enumerate(rank_list):
                model = self.workers[rank].model
                model.zero_grad()
                logits = model.forward(features[position])
                losses[position], grad = ctx.loss_fn(logits, labels[position])
                model.backward(grad)
            return losses
        logits = ctx.net.forward(features, row_sel)
        losses, grad = obs.timed("compute.loss", ctx.loss_fn, logits, labels)
        ctx.net.backward(grad, row_sel)
        return losses

    def _run_pass(
        self,
        rows,
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
        ``rows`` is already normalized (:meth:`_normalize_ranks`).
        """
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
        # tolist() hands back exact python floats in one C pass.
        for worker, loss in zip(step_workers, losses.tolist()):
            if apply_update:
                worker.steps_taken += 1
            worker.last_loss = loss
        return losses

    def step(self) -> np.ndarray:
        """One mini-batch SGD step for every worker at once (a subset steps
        through :meth:`batched_steps`).

        Returns the per-worker losses (float64, each entry exactly what
        one per-worker step would have returned).
        """
        return self._run_pass(None, apply_update=True)

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
        first = self._run_pass(rows, apply_update=True)
        losses = np.empty((first.size, k), dtype=np.float64)
        losses[:, 0] = first
        for step_index in range(1, k):
            losses[:, step_index] = self._run_pass(rows, apply_update=True)
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
        """Sample one mini-batch per worker (all, or ``ranks``) and leave
        the gradients in ``arena.grads``
        (rows of workers outside ``ranks`` keep their previous content).
        Returns the per-worker losses without applying any update."""
        return self._run_pass(self._normalize_ranks(ranks), apply_update=False)

    # ------------------------------------------------------------------
    # the matrix optimizer update
    # ------------------------------------------------------------------
    #: Bytes of rows one optimizer update works on at once (its scratch).
    UPDATE_CHUNK_BYTES = 1 << 20

    def _apply_update(self, rows, ctx: _ExecContext) -> None:
        """SGD/momentum/weight-decay over arena rows ``rows`` (a slice: arena
        views, or an index array: gathered and scattered back), a chunk of
        :attr:`UPDATE_CHUNK_BYTES` at a time through the calling context's
        own scratch; blocks share the ``(n, N)`` velocity, on disjoint rows.
        The per-parameter loop's elementwise order is replayed (decay into
        the gradient, velocity update, scaled subtraction): bit-identical."""
        arena = self.arena
        scattered = not isinstance(rows, slice)
        ranks = rows if scattered else range(self.num_workers)[rows]
        rates = np.array(
            [self.workers[rank].optimizer.lr for rank in ranks], dtype=arena.dtype
        )[:, None]
        chunk = max(1, self.UPDATE_CHUNK_BYTES // (arena.model_size * arena.dtype.itemsize))
        scratch = ctx.scratch_rows(min(chunk, len(ranks)), arena.model_size, arena.dtype)
        for at in range(0, len(ranks), chunk):
            part, rate = ranks[at:at + chunk], rates[at:at + chunk]
            part = part if scattered else slice(part.start, part.stop)
            params, grads, out = arena.data[part], arena.grads[part], scratch[: len(rate)]
            if self.weight_decay:
                # wd·X + G == G + wd·X exactly (IEEE addition commutes), so
                # the decayed gradient can build in the scratch buffer.
                np.multiply(params, self.weight_decay, out=out)
                out += grads
                grads = out
            update = grads
            if self.momentum:
                update = self._velocity[part]
                update *= self.momentum
                update += grads
                if scattered:
                    self._velocity[part] = update
                if self.nesterov:
                    update = grads + self.momentum * update
            np.multiply(update, rate, out=out)
            params -= out
            if scattered:
                arena.data[part] = params

    # ------------------------------------------------------------------
    # consensus evaluation
    # ------------------------------------------------------------------
    def evaluate_vector(
        self, vector: np.ndarray, dataset: Dataset, batch_size: int = 256
    ) -> tuple:
        """``(mean_loss, top1_accuracy)`` of one flat model vector.

        Forwards ``vector`` directly through the batched kernels' eval
        path — no worker replica is borrowed, mutated or restored —
        through the shared evaluation loop :func:`evaluate_forward`,
        cast once against the vector dtype.  Without a batched plan,
        worker 0's module is borrowed (its batch-norm statistics
        included) and restored, serially.

        With threads configured, validation batches run concurrently:
        each pool thread forwards through its own kernel chain (the same
        per-thread contexts the block passes use), and the loss fold
        stays on the caller in batch order — bit-identical to serial.
        """
        vector = np.asarray(vector)
        if self.net is None:
            probe = self.workers[0]
            saved = probe.snapshot_params()
            probe.set_params(vector)
            probe.model.eval()
            result = evaluate_forward(
                probe.model.forward, dataset, probe.model.dtype, batch_size
            )
            probe.model.train()
            probe.set_params(saved)
            return result

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


def _stack_fields(worker: TrainingWorker) -> dict:
    """What must agree across workers for their steps to stack."""
    optimizer, dataset = worker.optimizer, worker.loader.dataset
    return {
        "batch size": worker.loader.batch_size,
        "momentum": optimizer.momentum,
        "weight decay": optimizer.weight_decay,
        "nesterov": optimizer.nesterov,
        "feature shape": dataset.features.shape[1:],
        "feature dtype": dataset.features.dtype,
        "label dtype": dataset.labels.dtype,
    }
