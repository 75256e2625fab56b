"""PSGD (all-reduce) and TopK-PSGD baselines.

* :class:`PSGD` — synchronous parallel SGD with a bandwidth-optimal
  all-reduce: every worker ends each round with the average gradient.
  Worker traffic is ``2N`` values per round (Table I).
* :class:`TopKPSGD` — each worker sparsifies its gradient to the top
  ``N/c`` magnitudes with error feedback, then allgathers the sparse
  gradients; worker traffic is ``≈2n·(N/c)`` values per round (Table I:
  the allgather is what keeps TopK linear in ``n``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.algorithms.base import DistributedAlgorithm
from repro.compression.base import BYTES_PER_VALUE
from repro.compression.error_feedback import BatchedErrorFeedback
from repro.compression.topk import TopKCompressor


class PSGD(DistributedAlgorithm):
    """All-reduce parallel SGD (Eq. 1): the accuracy upper bound."""

    name = "PSGD"

    def run_round(self, round_index: int) -> float:
        # Gradients land in the arena's grad matrix; the all-reduce is
        # one column-mean and the update one broadcasted row operation —
        # no per-worker concat/split.
        losses = self.cluster_trainer.compute_gradients()
        self._check_finite(losses, None, "round", round_index, "gradient")
        average = self.arena.grads.mean(axis=0)
        self._apply_average_gradient(average)

        # Ring all-reduce accounting: each worker exchanges ~2N values per
        # round regardless of n (sends N to its successor, receives N from
        # its predecessor — Table I's 2NT worker cost).
        with obs.phase("comm"):
            ranks = np.arange(self.num_workers)
            model_bytes = self.model_size * BYTES_PER_VALUE
            self.network.meter.record_round(
                ranks, (ranks + 1) % ranks.size, np.full(ranks.size, model_bytes)
            )
            bottleneck = self.min_link_bandwidth()
            if bottleneck is not None:
                # The collective moves 2N per worker gated by the
                # slowest link.
                self.network.timer.add_transfer(2 * model_bytes, bottleneck)
        self.network.finish_round()
        return float(np.mean(losses))


class TopKPSGD(DistributedAlgorithm):
    """Top-k sparsified PSGD with error feedback and sparse allgather."""

    name = "TopK-PSGD"

    def __init__(self, compression_ratio: float = 1000.0) -> None:
        super().__init__()
        self.compressor = TopKCompressor(compression_ratio)
        self._batch_feedback = None

    def _after_setup(self) -> None:
        # One (n, N) residual matrix; compression runs over the whole
        # gradient matrix per round.  Top-k is deterministic, so this is
        # element-for-element identical to n independent per-worker
        # buffers.
        self._batch_feedback = BatchedErrorFeedback(
            self.compressor,
            self.num_workers,
            self.model_size,
            dtype=self.arena.dtype,
        )

    def run_round(self, round_index: int) -> float:
        # Gradients accumulate into the arena's grad matrix; error
        # feedback makes one pass over its (n, N) residual and the mean
        # folds sparse rows.
        losses = self.cluster_trainer.compute_gradients()
        self._check_finite(losses, None, "round", round_index, "gradient")
        batch = self._batch_feedback.compress(self.arena.grads, round_index)
        payload_bytes = batch.row_bytes()
        self._apply_average_gradient(batch.dense_mean(self.model_size))

        # Allgather: every worker ships its sparse gradient to the other
        # n-1 workers (and receives n-1 sparse gradients).
        with obs.phase("comm"):
            n = self.num_workers
            senders, receivers = np.nonzero(~np.eye(n, dtype=bool))
            self.network.meter.record_round(
                senders, receivers, payload_bytes[senders]
            )
            bottleneck = self.min_link_bandwidth()
            if bottleneck is not None:
                # A worker's NIC serializes its n-1 uploads.
                worst = int(payload_bytes.max())
                self.network.timer.add_transfer((n - 1) * worst, bottleneck)
        self.network.finish_round()
        return float(np.mean(losses))
