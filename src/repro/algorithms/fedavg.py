"""FedAvg and Sparse FedAvg (S-FedAvg) baselines.

* :class:`FedAvg` — McMahan et al.: per round the server samples a
  fraction ``C`` of workers; each downloads the global model, runs ``E``
  local SGD steps, uploads its model; the server averages.  Worker
  traffic: ``2N`` per participation; server: ``2N`` per participant
  (Table I row FedAvg with the paper's C=0.5 convention).
* :class:`SparseFedAvg` — Konečný et al.'s random-mask *upload*
  compression on top of FedAvg: downloads stay dense (``N``), uploads
  carry ``N/c`` values plus indices (``≈2N/c`` traffic), matching
  Table I's ``(N + 2N/c)T`` per worker.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.algorithms.base import DistributedAlgorithm
from repro.compression.base import (
    BYTES_PER_INDEX,
    BYTES_PER_VALUE,
    check_compression_ratio,
)
from repro.compression.topk import k_for
from repro.network.metrics import TrafficMeter
from repro.utils.validation import check_positive


class FedAvg(DistributedAlgorithm):
    """Federated averaging with client sampling."""

    name = "FedAvg"

    def __init__(
        self,
        participation: float = 0.5,
        local_steps: int = 5,
        sample_size: Optional[int] = None,
        population=None,
        round_duration: float = 1.0,
    ) -> None:
        super().__init__()
        if not 0.0 < participation <= 1.0:
            raise ValueError(f"participation must be in (0, 1], got {participation}")
        if local_steps <= 0:
            raise ValueError(f"local_steps must be positive, got {local_steps}")
        if sample_size is not None and int(sample_size) < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        check_positive(round_duration, "round_duration")
        self.participation = participation
        self.local_steps = local_steps
        #: Sampled participation: draw exactly ``sample_size`` clients per
        #: round (optionally from the clients a ``population`` model says
        #: are up at ``round_index * round_duration``) instead of the
        #: classic fraction-``C`` permutation draw.
        self.sample_size = None if sample_size is None else int(sample_size)
        self.population = population
        self.round_duration = float(round_duration)
        self.global_model: Optional[np.ndarray] = None

    def _after_setup(self) -> None:
        # Snapshot: the server's model must not follow worker 0's local
        # steps (get_params may be a live arena-row view).
        self.global_model = self.workers[0].snapshot_params()
        if (
            self.population is not None
            and self.population.num_clients != self.num_workers
        ):
            raise ValueError(
                f"population models {self.population.num_clients} clients, "
                f"algorithm has {self.num_workers} workers"
            )

    def participation_context(self):
        """The shared selection/gating layer, built from this server's
        sampling knobs (re-created per call, so ``sample_size`` /
        ``population`` set after construction are honoured)."""
        # Imported here: repro.algorithms must not import the repro.sim
        # package at module load (sim.comparison imports the algorithms).
        from repro.sim.participation import ParticipationContext

        return ParticipationContext(
            self.num_workers,
            population=self.population,
            sample_size=self.sample_size,
            fraction=self.participation,
            round_duration=self.round_duration,
        )

    def _select(self, round_index: int = 0) -> List[int]:
        # Selection lives in the shared ParticipationContext; the draw
        # consumes self._rng exactly as the historical inline code did.
        return self.participation_context().select_round(
            round_index, self._rng
        )

    def _account(self, selected: List[int], upload_bytes: int) -> None:
        """Dense download + (possibly sparse) upload per selected worker,
        timed as one server batch."""
        with obs.phase("comm"):
            ranks = np.asarray(selected, dtype=np.int64)
            server = np.full(ranks.size, TrafficMeter.SERVER)
            model_bytes = self.model_size * BYTES_PER_VALUE
            self.network.meter.record_round(
                np.concatenate([server, ranks]),
                np.concatenate([ranks, server]),
                np.repeat([model_bytes, upload_bytes], ranks.size),
            )
            server_bandwidth = self.network.server_bandwidth
            if server_bandwidth is not None:
                total = len(selected) * (model_bytes + upload_bytes)
                self.network.timer.add_transfer(total, server_bandwidth)
            self.network.finish_round()

    def run_round(self, round_index: int) -> float:
        selected = self._select(round_index)
        self.last_participants = selected
        # Download = one row write per participant; E local steps run
        # over the selected rows (worker-major loss order).
        rows = np.asarray(selected, dtype=np.intp)
        self.arena.data[rows] = np.asarray(
            self.global_model, dtype=self.arena.dtype
        )
        losses = self.cluster_trainer.batched_steps(self.local_steps, rows)
        self._check_finite(losses, rows, "round", round_index)
        # Server-side average straight off the replica matrix rows.
        self.global_model = self.arena.data[selected].mean(axis=0)
        self._account(selected, self.model_size * BYTES_PER_VALUE)
        return float(np.mean(losses))

    def consensus_model(self) -> np.ndarray:
        """FedAvg's evaluated model is the server's global model."""
        return self.global_model.copy()


class SparseFedAvg(FedAvg):
    """FedAvg with random-mask-sparsified uploads (S-FedAvg)."""

    name = "S-FedAvg"

    def __init__(
        self,
        participation: float = 0.5,
        local_steps: int = 5,
        compression_ratio: float = 100.0,
        sample_size: Optional[int] = None,
        population=None,
        round_duration: float = 1.0,
    ) -> None:
        super().__init__(
            participation,
            local_steps,
            sample_size=sample_size,
            population=population,
            round_duration=round_duration,
        )
        self.compression_ratio = check_compression_ratio(compression_ratio)

    def run_round(self, round_index: int) -> float:
        selected = self._select(round_index)
        self.last_participants = selected
        kept = k_for(self.model_size, self.compression_ratio)
        delta_sums = np.zeros(self.model_size, dtype=self.global_model.dtype)
        sender_counts = np.zeros(self.model_size)
        # Local phase first; the per-rank upload masks below then draw
        # from the shared RNG in rank order (local sampling uses
        # per-worker streams, so running all the steps first leaves the
        # mask stream untouched).
        rows = np.asarray(selected, dtype=np.intp)
        self.arena.data[rows] = np.asarray(
            self.global_model, dtype=self.arena.dtype
        )
        losses = self.cluster_trainer.batched_steps(self.local_steps, rows)
        self._check_finite(losses, rows, "round", round_index)
        uploads = [self.arena.data[rank] for rank in selected]
        for upload in uploads:
            delta = upload - self.global_model
            # Random-k mask on the *update* (structured/random updates of
            # Konečný et al.) — indices must be shipped, unlike SAPS.
            indices = self._rng.choice(self.model_size, size=kept, replace=False)
            delta_sums[indices] += delta[indices]
            sender_counts[indices] += 1
        # Per-coordinate averaging over the workers that actually sent
        # each coordinate: an unbiased estimate of the mean update on
        # every received coordinate, with FedAvg-like variance (dividing
        # by the full participant count instead would shrink the
        # effective step by c and stall at the paper's c = 100).
        update = np.where(
            sender_counts > 0, delta_sums / np.maximum(sender_counts, 1), 0.0
        )
        # sender_counts is float64 (exact small integers), so the division
        # upcasts; cast back so a float32 global model stays float32
        # (no-op at float64).
        self.global_model = self.global_model + update.astype(
            self.global_model.dtype, copy=False
        )
        upload_bytes = kept * (BYTES_PER_VALUE + BYTES_PER_INDEX)
        self._account(selected, upload_bytes)
        return float(np.mean(losses))
