"""Fault recovery: exchange retry policies, checkpoints, resilience stats.

The recovery half of the fault-injection story
(:mod:`repro.sim.faults` schedules the faults; this package decides how
the system survives them):

* :class:`ExchangePolicy` — per-exchange deadline + exponential-backoff
  retry with seed-deterministic jitter;
* :class:`~repro.resilience.policy.CheckpointRecovery` /
  :class:`~repro.resilience.policy.PeerRecovery` /
  :class:`~repro.resilience.policy.ColdRecovery` — what a recovering worker
  restarts from;
* :class:`~repro.resilience.checkpoint.CheckpointStore` — latest periodic
  per-worker snapshots (params + optimizer velocity + error-feedback
  residual);
* :class:`ResilienceStats` — goodput, retry/abort counts, downtime and
  MTTR accounting, consumed by :mod:`repro.analysis.resilience`.
"""

from repro.resilience.policy import (
    ExchangePolicy,
    RecoveryPolicy,
    make_recovery_policy,
)
from repro.resilience.stats import ResilienceStats

__all__ = [
    "ExchangePolicy",
    "RecoveryPolicy",
    "make_recovery_policy",
    "ResilienceStats",
]
