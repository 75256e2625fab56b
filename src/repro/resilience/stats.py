"""Resilience accounting: exchange goodput, retries, downtime, MTTR.

One :class:`ResilienceStats` instance rides along an event-engine run
with an active :class:`~repro.sim.faults.FaultPlan` and records what the
fault machinery actually did — the raw series behind
:mod:`repro.analysis.resilience`'s goodput / degradation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class ResilienceStats:
    """Counters and logs of one faulty run."""

    num_workers: int
    #: Exchange attempts started (each retry is a fresh attempt).
    attempted_exchanges: int = 0
    #: Attempts whose payload was delivered and applied.
    completed_exchanges: int = 0
    #: Attempts aborted mid-flight by a crash or link-down event.
    aborted_exchanges: int = 0
    #: Attempts that expired at their deadline (dead/unreachable peer).
    timeout_exchanges: int = 0
    #: Backoff retries scheduled.
    retries: int = 0
    #: Exchanges abandoned after max retries (the re-match path).
    give_ups: int = 0
    #: ``(worker, time)`` crash log, in event order.
    crashes: List[Tuple[int, float]] = field(default_factory=list)
    #: ``(worker, time)`` recovery log, in event order.
    recoveries: List[Tuple[int, float]] = field(default_factory=list)
    #: ``(worker, policy, staleness_seconds)`` per restore: how old the
    #: restored state was relative to the recovery instant.
    restores: List[Tuple[int, str, float]] = field(default_factory=list)
    #: Open downtime start per worker (internal).
    _down_since: Dict[int, float] = field(default_factory=dict)
    #: Closed per-worker downtime intervals.
    downtime: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_crash(self, worker: int, time: float) -> None:
        self.crashes.append((worker, time))
        self._down_since[worker] = time

    def record_recovery(self, worker: int, time: float) -> None:
        self.recoveries.append((worker, time))
        start = self._down_since.pop(worker, None)
        if start is not None:
            self.downtime.setdefault(worker, []).append((start, time))

    def record_restore(self, worker: int, policy: str, staleness: float) -> None:
        self.restores.append((worker, policy, float(staleness)))

    def close(self, horizon: float) -> None:
        """Close still-open downtime intervals at the run horizon."""
        for worker, start in list(self._down_since.items()):
            self.downtime.setdefault(worker, []).append((start, horizon))
        self._down_since.clear()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    @property
    def goodput(self) -> float:
        """Completed / attempted exchanges (1.0 when nothing attempted)."""
        if self.attempted_exchanges == 0:
            return 1.0
        return self.completed_exchanges / self.attempted_exchanges

    def worker_mttr(self, worker: int) -> Optional[float]:
        """Mean time-to-recovery of one worker (None if it never went down)."""
        intervals = self.downtime.get(worker, [])
        if not intervals:
            return None
        return float(np.mean([end - start for start, end in intervals]))

    def worker_downtime_seconds(self, worker: int) -> float:
        return float(
            sum(end - start for start, end in self.downtime.get(worker, []))
        )

    def mean_mttr(self) -> Optional[float]:
        """Mean repair time over all closed downtime intervals."""
        durations = [
            end - start
            for intervals in self.downtime.values()
            for start, end in intervals
        ]
        if not durations:
            return None
        return float(np.mean(durations))

    def mean_restore_staleness(self) -> Optional[float]:
        if not self.restores:
            return None
        return float(np.mean([staleness for _, _, staleness in self.restores]))

    def as_metrics(self) -> Dict[str, float]:
        """This object under the telemetry layer's metric names.

        :func:`repro.obs.mirror_resilience` writes exactly these pairs
        into the installed registry (absolute cumulative mirrors), so
        the fault reports and the telemetry layer can never disagree —
        both read the same counters.
        """
        total_downtime = sum(
            end - start
            for intervals in self.downtime.values()
            for start, end in intervals
        )
        return {
            "exchange.attempted": float(self.attempted_exchanges),
            "exchange.completed": float(self.completed_exchanges),
            "exchange.aborted": float(self.aborted_exchanges),
            "exchange.timeout": float(self.timeout_exchanges),
            "exchange.retries": float(self.retries),
            "exchange.give_ups": float(self.give_ups),
            "fault.crashes": float(len(self.crashes)),
            "fault.recoveries": float(len(self.recoveries)),
            "fault.restores": float(len(self.restores)),
            "fault.downtime_s": float(total_downtime),
        }
