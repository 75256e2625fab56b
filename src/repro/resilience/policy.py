"""Exchange retry policy and crash-recovery policies.

Two independent knobs of the fault story live here:

* :class:`ExchangePolicy` — what a worker does when an exchange does not
  complete: a per-attempt **deadline** (waiting on a dead peer expires
  after ``timeout`` simulated seconds), **exponential backoff** between
  retries with seed-deterministic jitter, and a retry budget after which
  the worker gives up and re-matches;
* :class:`RecoveryPolicy` subclasses — what a *recovering* worker
  restarts from: its last periodic checkpoint
  (:class:`CheckpointRecovery`), a live neighbor's current model
  (:class:`PeerRecovery` — the gossip-native policy, pays the transfer),
  or cold from the initial broadcast model (:class:`ColdRecovery`).

Every restore logs the restored state's **staleness** (how old the
state is relative to the recovery instant) into the run's
:class:`~repro.resilience.stats.ResilienceStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compression.base import BYTES_PER_VALUE
from repro.resilience.checkpoint import CheckpointStore, WorkerSnapshot
from repro.utils.rng import derive_seed


#: Retry ``attempt``'s backoff is ``BACKOFF_BASE * BACKOFF_FACTOR **
#: attempt`` seconds, stretched by a uniform factor in ``[1, 1 + JITTER)``.
BACKOFF_BASE = 0.25
BACKOFF_FACTOR = 2.0
JITTER = 0.25


@dataclass(frozen=True)
class ExchangePolicy:
    """Deadline + exponential-backoff retry parameters of one run.

    ``backoff_delay`` is a pure function of ``(seed, rank, counter)``:
    repeat runs draw identical jitter, so faulty runs stay
    seed-deterministic end to end.
    """

    timeout: float = 5.0
    max_retries: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )

    def backoff_delay(self, rank: int, attempt: int, counter: int) -> float:
        """Delay before retry ``attempt`` (0-based) of one exchange.

        ``counter`` is any monotone per-run identifier (the attempt's
        exchange index) that decorrelates jitter across exchanges.
        """
        rng = np.random.default_rng(
            derive_seed(self.seed, "backoff", rank, counter, attempt)
        )
        scale = 1.0 + JITTER * float(rng.random())
        return BACKOFF_BASE * (BACKOFF_FACTOR ** attempt) * scale


# ----------------------------------------------------------------------
# recovery policies
# ----------------------------------------------------------------------
def _write_state(
    algorithm,
    rank: int,
    params: np.ndarray,
    velocity: Optional[np.ndarray] = None,
) -> None:
    """Overwrite one worker's training state.

    The optimizer velocity row is zeroed when the snapshot carries none —
    a restarted worker must not inherit the momentum of its dead
    incarnation.
    """
    arena = algorithm.arena
    arena.data[rank] = np.asarray(params, dtype=arena.dtype)
    velocity_matrix = algorithm.cluster_trainer._velocity
    if velocity_matrix is not None:
        velocity_matrix[rank] = velocity if velocity is not None else 0.0


class RecoveryPolicy:
    """Interface: bring worker ``rank`` back at simulated time ``now``.

    Implementations restore state, log the restore's staleness into
    ``engine.resilience``, and call ``algorithm.restart_worker`` at the
    simulated time the worker is ready (immediately for local restores,
    after the fetch transfer for :class:`PeerRecovery`).
    """

    name = "base"

    def recover(self, engine, algorithm, rank: int, now: float) -> None:
        raise NotImplementedError

    def _cold_restore(self, engine, algorithm, rank: int, now: float) -> None:
        _write_state(algorithm, rank, algorithm.initial_model)
        engine.resilience.record_restore(rank, self.name, now)
        algorithm.restart_worker(rank, now)


class ColdRecovery(RecoveryPolicy):
    """Restart from the initial broadcast model (staleness = run age)."""

    name = "cold"

    def recover(self, engine, algorithm, rank: int, now: float) -> None:
        self._cold_restore(engine, algorithm, rank, now)


class CheckpointRecovery(RecoveryPolicy):
    """Restart from the last periodic snapshot (params + optimizer
    velocity); cold when none was taken yet."""

    name = "checkpoint"

    def __init__(self, interval: float = 1.0) -> None:
        self.store = CheckpointStore(interval)

    def recover(self, engine, algorithm, rank: int, now: float) -> None:
        snapshot: Optional[WorkerSnapshot] = self.store.latest(rank)
        if snapshot is None:
            self._cold_restore(engine, algorithm, rank, now)
            return
        _write_state(algorithm, rank, snapshot.params, snapshot.velocity)
        engine.resilience.record_restore(rank, self.name, now - snapshot.time)
        algorithm.restart_worker(rank, now)


class PeerRecovery(RecoveryPolicy):
    """Fetch a live neighbor's current model over its link (the
    gossip-native policy): fresh state, but the restart pays the model
    transfer and the donor's link occupancy."""

    name = "peer"

    def recover(self, engine, algorithm, rank: int, now: float) -> None:
        donor = self._pick_donor(engine, rank)
        if donor is None:
            self._cold_restore(engine, algorithm, rank, now)
            return
        num_bytes = algorithm.model_size * BYTES_PER_VALUE
        slot = len(engine.resilience.restores)
        _, end = engine.start_transfer(now, donor, rank, num_bytes, slot)
        ready = max(end, now)

        def finish(t: float, donor=donor) -> None:
            if not engine.worker_up[rank]:
                return  # crashed again before the fetch completed
            if engine.worker_up[donor]:
                _write_state(
                    algorithm, rank, algorithm.arena.data[donor].copy()
                )
                engine.resilience.record_restore(rank, self.name, 0.0)
                algorithm.restart_worker(rank, t)
            else:
                # Donor died mid-fetch: fall back to a cold restart.
                self._cold_restore(engine, algorithm, rank, t)

        engine.schedule(ready, finish)

    @staticmethod
    def _pick_donor(engine, rank: int) -> Optional[int]:
        """Fastest live link to the recovering worker (the adaptive
        flavour); lowest live rank when time is not modelled."""
        live = [
            peer
            for peer in range(engine.num_workers)
            if peer != rank and engine.worker_up[peer]
        ]
        if not live:
            return None
        bandwidth = engine.network.bandwidth
        if bandwidth is None:
            return live[0]
        return max(live, key=lambda peer: (bandwidth[rank, peer], -peer))


#: CLI names of the recovery policies.
RECOVERY_POLICIES = ("checkpoint", "peer", "cold")


def make_recovery_policy(
    name: str, checkpoint_interval: float = 1.0
) -> RecoveryPolicy:
    """Build a recovery policy from its CLI name."""
    if name == "checkpoint":
        return CheckpointRecovery(checkpoint_interval)
    if name == "peer":
        return PeerRecovery()
    if name == "cold":
        return ColdRecovery()
    raise ValueError(
        f"unknown recovery policy {name!r}; expected one of {RECOVERY_POLICIES}"
    )
