"""D-PSGD and DCD-PSGD decentralized baselines (ring topology).

* :class:`DPSGD` — Lian et al.: ``x_i ← Σ_j W_ij x_j − γ g_i`` with a
  fixed ring gossip matrix; both neighbours receive the *full* model
  every round (Table I: ``4 n_p N T``).
* :class:`DCDPSGD` — Tang et al.: each worker keeps public copies
  ``x̂_j`` of its own and its neighbours' models and exchanges only a
  compressed model *difference*; every copy integrates the differences
  identically, so one ``(n, N)`` matrix ``X̂`` holds them all.  The
  paper sets ``c = 4`` ("if c is larger than 4, it would lose much
  accuracy"), which our bench inherits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import DistributedAlgorithm
from repro.compression.base import BYTES_PER_VALUE
from repro.compression.topk import TopKCompressor
from repro.core.gossip import ring_gossip_matrix


class DPSGD(DistributedAlgorithm):
    """Decentralized parallel SGD on a fixed ring."""

    name = "D-PSGD"

    def _after_setup(self) -> None:
        # Mixing weights live in the workers' dtype so float32 runs mix
        # without upcast temporaries (no-op cast at float64).
        self.gossip = ring_gossip_matrix(self.num_workers).astype(
            self.arena.dtype, copy=False
        )
        # Persistent (n, N) pair for the ring mix: the mixed-model
        # accumulator and the neighbour-gather scratch.  Allocated on
        # first use, reused every round.
        self._mix_buf: np.ndarray | None = None
        self._mix_tmp: np.ndarray | None = None

    def _ring(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every rank's left and right ring neighbour."""
        ranks = np.arange(self.num_workers)
        return (ranks - 1) % ranks.size, (ranks + 1) % ranks.size

    def _mix_ring(self) -> None:
        """Row-blocked ring mix: one cache-hot pass per block.

        ``X ← (self_w·X + prev_w·X[prev] + next_w·X[next]) − rates·G``,
        accumulated in that order (self, left, right neighbour).  Each
        block accumulates its mixed rows into a persistent ``(n, N)``
        buffer with in-place ufuncs — the only transient left is the
        float64 learning-rate product when the arena is float32 (the
        float64 ``rates`` promote the expression there, and the block
        pass keeps its single final rounding).  Blocks write disjoint
        buffer rows while only *reading* the replica matrix, so they run
        on the configured thread pool; the write-back happens after the
        barrier, once no block still needs a neighbour's old row.  Per
        element the kernel sequence and operand order equal the
        whole-matrix expression, so the result is bit-identical to it at
        every dtype and thread count.
        """
        from repro.utils import parallel

        replicas = self.arena.data
        grads = self.arena.grads
        # Neighbour index vectors and per-row mixing weights (columns).
        ranks = np.arange(self.num_workers)
        prev_ranks, next_ranks = self._ring()
        self_w = np.diag(self.gossip)[:, None]
        prev_w = self.gossip[ranks, prev_ranks][:, None]
        next_w = self.gossip[ranks, next_ranks][:, None]
        rates = np.array([w.optimizer.lr for w in self.workers])
        if self._mix_buf is None or self._mix_buf.shape != replicas.shape:
            self._mix_buf = np.empty_like(replicas)
            self._mix_tmp = np.empty_like(replicas)
        buf = self._mix_buf
        tmp = self._mix_tmp
        same_dtype = rates.dtype == replicas.dtype

        def mix_block(bound) -> None:
            start, stop = bound
            b = buf[start:stop]
            t = tmp[start:stop]
            np.multiply(self_w[start:stop], replicas[start:stop], out=b)
            np.take(replicas, prev_ranks[start:stop], axis=0, out=t)
            np.multiply(prev_w[start:stop], t, out=t)
            np.add(b, t, out=b)
            np.take(replicas, next_ranks[start:stop], axis=0, out=t)
            np.multiply(next_w[start:stop], t, out=t)
            np.add(b, t, out=b)
            if same_dtype:
                np.multiply(rates[start:stop, None], grads[start:stop], out=t)
                np.subtract(b, t, out=b)
            else:
                # float32 arena: the float64 rates promote the product
                # and the subtraction, which round once on assignment
                # (the float64 transient is one block, not the full
                # matrix).
                b[...] = b - rates[start:stop, None] * grads[start:stop]

        parallel.parallel_map(
            mix_block,
            parallel.block_ranges(self.num_workers, self._mix_block_rows()),
            phase="mix.block",
        )
        # Barrier passed: every block has read the neighbour rows it
        # needs, so the replica matrix can take the new models.
        replicas[...] = buf

    def run_round(self, round_index: int) -> float:
        losses = self.cluster_trainer.compute_gradients()
        self._check_finite(losses, None, "round", round_index, "gradient")
        with obs.phase("comm"):
            # Both neighbours' full models arrive at each worker: per
            # rank, from its left neighbour, then from its right.
            self.network.send_bytes(
                round_index, np.column_stack(self._ring()).ravel(),
                np.repeat(np.arange(self.num_workers), 2),
                self.model_size * BYTES_PER_VALUE,
            )
        with obs.phase("mix"):
            self._mix_ring()
        for worker in self.workers:
            worker.steps_taken += 1
        self.network.finish_round()
        return float(np.mean(losses))


class DCDPSGD(DPSGD):
    """Difference-compressed D-PSGD over one public-model matrix ``X̂``."""

    name = "DCD-PSGD"

    def __init__(self, compression_ratio: float = 4.0) -> None:
        super().__init__()
        self.compressor = TopKCompressor(compression_ratio)

    def _after_setup(self) -> None:
        super()._after_setup()
        # X̂: row j is worker j's public model, the copy that j and both
        # of its ring neighbours hold.  Every copy starts at the shared
        # init and integrates the same compressed deltas, so one row
        # stands for all three (the DCD invariant).
        self.public = np.tile(self.workers[0].get_params(), (self.num_workers, 1))

    def run_round(self, round_index: int) -> float:
        # Each worker's mini-batch gradient is its (live) row of the
        # arena grad matrix.
        losses = self.cluster_trainer.compute_gradients()
        self._check_finite(losses, None, "round", round_index, "gradient")
        ranks = np.arange(self.num_workers)
        prev_ranks, next_ranks = self._ring()
        public = self.public

        # Phase 1: local updates from the public models, accumulated
        # self, left, right, then the step, with the rates in the arena
        # dtype (a python float's product casts the same way); the model
        # deltas then go through one batched top-k pass (deterministic,
        # so identical to compressing each worker's delta on its own).
        with obs.phase("mix"):
            rates = np.array(
                [w.optimizer.lr for w in self.workers], dtype=self.arena.dtype
            )
            new = np.diag(self.gossip)[:, None] * public
            new += self.gossip[ranks, prev_ranks][:, None] * public[prev_ranks]
            new += self.gossip[ranks, next_ranks][:, None] * public[next_ranks]
            new -= rates[:, None] * self.arena.grads
            self.arena.data[...] = new
            for worker in self.workers:
                worker.steps_taken += 1
            delta_matrix = np.subtract(new, public, out=new)

        # Phase 2: every holder integrates the same deltas into X̂.
        with obs.phase("comm"):
            batch = self.compressor.compress_matrix(delta_matrix, round_index)
            public += batch.to_dense(self.model_size)
            # Per rank, to its left neighbour, then to its right.
            self.network.send(
                round_index, np.repeat(ranks, 2),
                np.column_stack([prev_ranks, next_ranks]).ravel(), batch,
            )
        self.network.finish_round()
        return float(np.mean(losses))
