"""Per-worker compute-time models (stragglers).

The paper's Fig. 6 footnote: "Due to the diversity of computing resources
(e.g., CPU and GPU), the computation time may be various. So we mainly
focus on the comparison of communication time, while the end-to-end
training time can also be obtained accordingly."  This module provides
that "accordingly": per-worker step-time models so the engine can report
compute time and end-to-end time next to communication time.

A synchronous round's compute time is the *maximum* over participating
workers (the barrier waits for the straggler); FedAvg-style partial
participation only waits for the sampled workers — measurable here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive


class ComputeModel:
    """Interface: seconds worker ``rank`` needs for ``steps`` local SGD
    steps in round ``round_index``."""

    def step_time(self, round_index: int, rank: int, steps: int = 1) -> float:
        raise NotImplementedError

    def round_time(
        self,
        round_index: int,
        participants: Sequence[int],
        steps: int = 1,
    ) -> float:
        """Synchronous barrier: slowest participant gates the round."""
        if not list(participants):
            return 0.0
        return max(
            self.step_time(round_index, rank, steps) for rank in participants
        )


class ConstantCompute(ComputeModel):
    """Every worker takes exactly ``seconds_per_step``."""

    def __init__(self, seconds_per_step: float = 0.1) -> None:
        check_positive(seconds_per_step, "seconds_per_step")
        self.seconds_per_step = float(seconds_per_step)

    def step_time(self, round_index: int, rank: int, steps: int = 1) -> float:
        return self.seconds_per_step * steps


class HeterogeneousCompute(ComputeModel):
    """Per-worker mean speeds with log-normal per-round jitter.

    Worker means are drawn once (log-uniform over
    ``[mean_step_time/spread, mean_step_time*spread]``), modelling a
    mixed fleet (GPU boxes next to laptops); each round each worker
    jitters around its mean.
    """

    def __init__(
        self,
        num_workers: int,
        mean_step_time: float = 0.1,
        spread: float = 4.0,
        jitter: float = 0.1,
        rng: SeedLike = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        check_positive(mean_step_time, "mean_step_time")
        if spread < 1.0:
            raise ValueError(f"spread must be >= 1, got {spread}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.num_workers = num_workers
        self.jitter = jitter
        self._rng = as_generator(rng)
        log_low, log_high = (
            np.log(mean_step_time / spread), np.log(mean_step_time * spread)
        )
        self.worker_means = np.exp(
            self._rng.uniform(log_low, log_high, size=num_workers)
        )

    def step_time(self, round_index: int, rank: int, steps: int = 1) -> float:
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"rank {rank} out of range")
        if not self.jitter:  # normal(0, 0) is 0.0 and exp(0.0) is 1.0
            return float(self.worker_means[rank] * steps)
        # Deterministic per (round, rank) jitter so queries are stable.
        jitter_rng = np.random.default_rng(
            (round_index * 1_000_003 + rank) & 0x7FFFFFFF
        )
        factor = np.exp(jitter_rng.normal(0.0, self.jitter))
        return float(self.worker_means[rank] * factor * steps)

    def imbalance(self) -> float:
        """Slowest/fastest mean step-time ratio."""
        return float(self.worker_means.max() / self.worker_means.min())
