"""Periodic worker checkpoints for crash recovery.

The checkpoint-restore recovery policy needs somewhere to restart a
recovering worker *from*.  :class:`CheckpointStore` keeps, per worker,
the **latest** periodic snapshot of its training state:

* the flat parameter vector (the worker's arena row);
* the optimizer velocity row, when the
  :class:`~repro.sim.cluster.ClusterTrainer` runs with momentum.

Only the latest snapshot is retained — restoring from "the last periodic
checkpoint" is the semantics, and keeping one ``(N,)`` row per worker
bounds memory at one extra replica matrix regardless of run length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass
class WorkerSnapshot:
    """One worker's training state at one simulated instant."""

    time: float
    params: np.ndarray
    velocity: Optional[np.ndarray] = None


def _velocity_row(algorithm, rank: int) -> Optional[np.ndarray]:
    velocity = algorithm.cluster_trainer._velocity
    return None if velocity is None else velocity[rank].copy()


class CheckpointStore:
    """Latest-snapshot-per-worker store with a capture interval."""

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {interval}")
        self.interval = float(interval)
        self._snapshots: Dict[int, WorkerSnapshot] = {}
        self.captures = 0

    def capture(self, algorithm, live_mask: np.ndarray, time: float) -> None:
        """Snapshot every live worker's state at ``time``.

        Dead workers keep their pre-crash snapshot — a checkpoint taken
        while a worker is down must not overwrite the state it will
        restart from.
        """
        for rank in range(len(live_mask)):
            if not live_mask[rank]:
                continue
            self._snapshots[rank] = WorkerSnapshot(
                time=float(time),
                params=algorithm.arena.data[rank].copy(),
                velocity=_velocity_row(algorithm, rank),
            )
        self.captures += 1

    def latest(self, rank: int) -> Optional[WorkerSnapshot]:
        return self._snapshots.get(rank)
