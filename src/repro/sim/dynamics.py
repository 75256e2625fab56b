"""Worker churn: the network dynamics the paper's "R." column claims.

The paper motivates adaptive peer selection with federated workers that
"may join/leave the training randomly due to the battery power, network
connection, network latency, resource availability" and criticizes
DCD-PSGD for requiring an *unchanged* topology.  This module provides the
availability substrate: :class:`MarkovChurn`, per-round worker
availability as independent two-state Markov chains (up/down),
deterministic given a seed.  Scripted outages ("worker 3 dies at t = 50")
are a :class:`repro.sim.faults.FaultPlan`, projected to the same hook by
``FaultPlan.round_churn``.

:class:`repro.algorithms.SAPSPSGD` accepts a churn model: offline workers
skip local SGD and are excluded from the round's matching (Algorithm 3
simply matches the active subgraph), which is exactly why single-peer
random matching tolerates churn while a fixed ring stalls.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.rng import SeedLike, as_generator


class ChurnModel:
    """Interface: which workers are active at round ``t``."""

    def active_at(self, round_index: int) -> np.ndarray:
        """Boolean mask of shape ``(num_workers,)``."""
        raise NotImplementedError


class MarkovChurn(ChurnModel):
    """Independent up/down Markov chains per worker.

    Parameters
    ----------
    drop_probability:
        P[up → down] per round.
    return_probability:
        P[down → up] per round.  The stationary availability is
        ``return / (drop + return)``.
    min_active:
        Never let the active set fall below this (extra workers are
        revived deterministically, lowest rank first) — keeps rounds
        well-defined, mirroring a coordinator that waits for a quorum.

    The whole trajectory is precomputed lazily and cached, so queries are
    deterministic and O(1) per round regardless of call order.
    """

    def __init__(
        self,
        num_workers: int,
        drop_probability: float = 0.05,
        return_probability: float = 0.3,
        min_active: int = 2,
        rng: SeedLike = None,
    ) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop_probability must be in [0,1], got {drop_probability}")
        if not 0.0 < return_probability <= 1.0:
            raise ValueError(
                f"return_probability must be in (0,1], got {return_probability}"
            )
        if not 0 <= min_active <= num_workers:
            raise ValueError("min_active out of range")
        self.num_workers = num_workers
        self.drop_probability = drop_probability
        self.return_probability = return_probability
        self.min_active = min_active
        self._rng = as_generator(rng)
        self._trajectory: List[np.ndarray] = [
            np.ones(num_workers, dtype=bool)  # round 0: everyone up
        ]

    def _extend_to(self, round_index: int) -> None:
        while len(self._trajectory) <= round_index:
            previous = self._trajectory[-1]
            draws = self._rng.random(self.num_workers)
            nxt = np.where(
                previous,
                draws >= self.drop_probability,  # stay up
                draws < self.return_probability,  # come back
            )
            if nxt.sum() < self.min_active:
                for rank in range(self.num_workers):
                    if nxt.sum() >= self.min_active:
                        break
                    nxt[rank] = True
            self._trajectory.append(nxt)

    def active_at(self, round_index: int) -> np.ndarray:
        if round_index < 0:
            raise ValueError(f"round_index must be non-negative, got {round_index}")
        self._extend_to(round_index)
        return self._trajectory[round_index].copy()

    def availability_fraction(self, rounds: int) -> float:
        """Mean fraction of active workers over the first ``rounds``."""
        self._extend_to(max(rounds - 1, 0))
        if rounds <= 0:
            return 1.0
        return float(
            np.mean([mask.mean() for mask in self._trajectory[:rounds]])
        )
