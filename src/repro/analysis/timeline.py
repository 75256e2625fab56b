"""Simulated-time reports: time-to-target-accuracy and worker timelines.

The paper's headline comparison (Fig. 6, Table IV) is about *time*, not
bytes.  With the event engine (:mod:`repro.sim.events`) every run gets a
simulated-wall-clock axis; this module turns those trajectories into the
two reports the engine was built for:

* :func:`time_to_accuracy_table` — per algorithm, the first simulated
  time (``RoundRecord.time_s``, either engine) at which validation
  accuracy reached a target;
* :func:`worker_timeline` — per worker, seconds spent computing,
  communicating and idle over a run's horizon, from the engine's
  :class:`~repro.sim.events.EventTrace` — the breakdown that shows *why*
  an asynchronous schedule wins (stragglers stop gating everyone else).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.tables import render_table


@dataclass
class TimeToAccuracy:
    """One row of the time-to-target table."""

    algorithm: str
    target_accuracy: float
    reached: bool
    time_s: Optional[float]
    final_accuracy: float


@dataclass
class WorkerTimeline:
    """One worker's busy/idle breakdown over a run horizon."""

    worker: int
    compute_s: float
    comm_s: float
    idle_s: float
    utilization: float


def time_to_accuracy_table(
    results: Dict[str, object], target_accuracy: float
) -> List[TimeToAccuracy]:
    """The Table IV time column on the simulated-wall-clock axis, for
    results of either engine."""
    if not 0.0 < target_accuracy <= 1.0:
        raise ValueError(
            f"target_accuracy must be a fraction in (0, 1], got {target_accuracy}"
        )
    rows = []
    for name, result in results.items():
        reached_at = result.cost_to_reach(target_accuracy, "time_s")
        rows.append(
            TimeToAccuracy(
                algorithm=name,
                target_accuracy=target_accuracy,
                reached=reached_at is not None,
                time_s=reached_at,
                final_accuracy=result.final_accuracy,
            )
        )
    return rows


def render_time_to_accuracy(rows: List[TimeToAccuracy]) -> str:
    if not rows:
        raise ValueError("rows must not be empty")
    target = rows[0].target_accuracy
    table = [
        [
            row.algorithm,
            "yes" if row.reached else "no",
            None if row.time_s is None else round(row.time_s, 3),
            round(100 * row.final_accuracy, 2),
        ]
        for row in rows
    ]
    return render_table(
        ["Algorithm", "reached", "time to target [s]", "final acc [%]"],
        table,
        title=f"Time to {100 * target:.1f}% accuracy (simulated)",
    )


def timeline_row(
    worker: int, compute: float, comm: float, horizon: float
) -> WorkerTimeline:
    """One worker's row from its busy seconds over ``horizon``: idle is
    clamped at 0 and utilization at 1 (see :func:`worker_timeline`)."""
    busy = compute + comm
    return WorkerTimeline(
        worker=worker,
        compute_s=float(compute),
        comm_s=float(comm),
        idle_s=float(max(horizon - busy, 0.0)),
        utilization=float(min(busy / horizon, 1.0)),
    )


def worker_timeline(trace, horizon: float) -> List[WorkerTimeline]:
    """Per-worker compute/communication/idle seconds over ``horizon`` —
    the run's own (``result.horizon``): the trace's sums are clipped at
    it and answer for no other.

    A worker's transmit and receive ends are counted separately (the
    trace is told of one interval per link end), so a full-duplex exchange
    counts twice in ``comm_s``; communication may also overlap
    computation (AD-PSGD's design).  Idle is therefore clamped at 0 and
    utilization at 1 rather than computed by interval union.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    compute = trace.busy_seconds("compute", horizon)
    comm = trace.busy_seconds("comm", horizon)
    return [
        timeline_row(worker, compute[worker], comm[worker], horizon)
        for worker in range(trace.num_workers)
    ]


def render_worker_timeline(rows: List[WorkerTimeline]) -> str:
    if not rows:
        raise ValueError("rows must not be empty")
    table = [
        [
            row.worker,
            round(row.compute_s, 3),
            round(row.comm_s, 3),
            round(row.idle_s, 3),
            f"{100 * row.utilization:.1f}%",
        ]
        for row in rows
    ]
    return render_table(
        ["worker", "compute [s]", "comm [s]", "idle [s]", "utilization"],
        table,
        title="Per-worker timeline breakdown",
    )
