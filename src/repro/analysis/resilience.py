"""Degradation-under-faults reports: goodput, MTTR, accuracy deltas.

The fault-injection subsystem (:mod:`repro.sim.faults` +
:mod:`repro.resilience`) answers "what breaks"; this module answers "how
much it cost".  Three reports over one faulty run's
:class:`~repro.resilience.stats.ResilienceStats` (and optionally its
fault-free twin):

* :func:`resilience_summary` / :func:`render_resilience_summary` — the
  run-level scorecard: exchange goodput (completed / attempted), retry /
  abort / timeout counts, crash count, mean MTTR and mean restored-state
  staleness;
* :func:`worker_resilience_table` / :func:`render_worker_resilience` —
  per-worker crash counts, downtime seconds, MTTR and availability over
  the run horizon;
* :func:`degradation_report` / :func:`render_degradation` — the faulty
  run against its no-fault baseline on the same config + seed: final /
  best accuracy deltas and the time-to-target-accuracy slip, i.e. the
  accuracy-under-faults curve collapsed to the numbers the robustness
  experiments compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.tables import render_table


@dataclass
class ResilienceSummary:
    """Run-level scorecard of one faulty run."""

    attempted_exchanges: int
    completed_exchanges: int
    aborted_exchanges: int
    timeout_exchanges: int
    retries: int
    give_ups: int
    goodput: float
    crashes: int
    recoveries: int
    mean_mttr_s: Optional[float]
    mean_restore_staleness_s: Optional[float]


@dataclass
class WorkerResilience:
    """One worker's availability over the run horizon."""

    worker: int
    crashes: int
    downtime_s: float
    mttr_s: Optional[float]
    availability: float


@dataclass
class Degradation:
    """Faulty run vs. its fault-free twin (same config + seed)."""

    final_accuracy: float
    baseline_final_accuracy: float
    final_accuracy_delta: float
    best_accuracy: float
    baseline_best_accuracy: float
    target_accuracy: Optional[float]
    time_to_target_s: Optional[float]
    baseline_time_to_target_s: Optional[float]
    #: Positive = the faults delayed reaching the target by this much;
    #: None when either run never reached it.
    time_to_target_slip_s: Optional[float]


def resilience_summary(stats) -> ResilienceSummary:
    """Collapse one run's :class:`ResilienceStats` into the scorecard."""
    return ResilienceSummary(
        attempted_exchanges=stats.attempted_exchanges,
        completed_exchanges=stats.completed_exchanges,
        aborted_exchanges=stats.aborted_exchanges,
        timeout_exchanges=stats.timeout_exchanges,
        retries=stats.retries,
        give_ups=stats.give_ups,
        goodput=stats.goodput,
        crashes=len(stats.crashes),
        recoveries=len(stats.recoveries),
        mean_mttr_s=stats.mean_mttr(),
        mean_restore_staleness_s=stats.mean_restore_staleness(),
    )


def render_resilience_summary(summary: ResilienceSummary) -> str:
    rows = [
        ["exchange goodput", f"{100 * summary.goodput:.1f}%"],
        ["attempted exchanges", summary.attempted_exchanges],
        ["completed exchanges", summary.completed_exchanges],
        ["aborted (crash/link)", summary.aborted_exchanges],
        ["deadline timeouts", summary.timeout_exchanges],
        ["backoff retries", summary.retries],
        ["give-ups (re-match)", summary.give_ups],
        ["crashes", summary.crashes],
        ["recoveries", summary.recoveries],
        [
            "mean MTTR [s]",
            None if summary.mean_mttr_s is None else round(summary.mean_mttr_s, 3),
        ],
        [
            "mean restore staleness [s]",
            None
            if summary.mean_restore_staleness_s is None
            else round(summary.mean_restore_staleness_s, 3),
        ],
    ]
    return render_table(["metric", "value"], rows, title="Resilience summary")


def worker_resilience_table(stats, horizon: float) -> List[WorkerResilience]:
    """Per-worker availability over ``horizon`` simulated seconds."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    crash_counts = [0] * stats.num_workers
    for worker, _ in stats.crashes:
        crash_counts[worker] += 1
    rows = []
    for worker in range(stats.num_workers):
        down = stats.worker_downtime_seconds(worker)
        rows.append(
            WorkerResilience(
                worker=worker,
                crashes=crash_counts[worker],
                downtime_s=down,
                mttr_s=stats.worker_mttr(worker),
                availability=max(0.0, 1.0 - down / horizon),
            )
        )
    return rows


def render_worker_resilience(rows: List[WorkerResilience]) -> str:
    if not rows:
        raise ValueError("rows must not be empty")
    table = [
        [
            row.worker,
            row.crashes,
            round(row.downtime_s, 3),
            None if row.mttr_s is None else round(row.mttr_s, 3),
            f"{100 * row.availability:.1f}%",
        ]
        for row in rows
    ]
    return render_table(
        ["worker", "crashes", "downtime [s]", "MTTR [s]", "availability"],
        table,
        title="Per-worker fault exposure",
    )


def degradation_report(
    faulty_result, baseline_result, target_accuracy: Optional[float] = None
) -> Degradation:
    """Quantify what the faults cost against the fault-free twin run.

    Both results must come from the same config + seed (the no-fault
    run is bit-identical to a run with no fault plan at all, so any
    pre-existing baseline works).  ``target_accuracy`` additionally
    reports the time-to-target slip on the simulated-time axis.
    """
    time_to = baseline_time_to = slip = None
    if target_accuracy is not None:
        time_to = faulty_result.cost_to_reach(target_accuracy, "time_s")
        baseline_time_to = baseline_result.cost_to_reach(
            target_accuracy, "time_s"
        )
        if time_to is not None and baseline_time_to is not None:
            slip = time_to - baseline_time_to
    return Degradation(
        final_accuracy=faulty_result.final_accuracy,
        baseline_final_accuracy=baseline_result.final_accuracy,
        final_accuracy_delta=(
            faulty_result.final_accuracy - baseline_result.final_accuracy
        ),
        best_accuracy=faulty_result.best_accuracy,
        baseline_best_accuracy=baseline_result.best_accuracy,
        target_accuracy=target_accuracy,
        time_to_target_s=time_to,
        baseline_time_to_target_s=baseline_time_to,
        time_to_target_slip_s=slip,
    )


def render_degradation(report: Degradation) -> str:
    rows = [
        ["final accuracy (faulty)", f"{100 * report.final_accuracy:.2f}%"],
        [
            "final accuracy (no faults)",
            f"{100 * report.baseline_final_accuracy:.2f}%",
        ],
        ["final accuracy delta", f"{100 * report.final_accuracy_delta:+.2f}pp"],
        ["best accuracy (faulty)", f"{100 * report.best_accuracy:.2f}%"],
        [
            "best accuracy (no faults)",
            f"{100 * report.baseline_best_accuracy:.2f}%",
        ],
    ]
    if report.target_accuracy is not None:
        rows.extend(
            [
                [
                    f"time to {100 * report.target_accuracy:.0f}% (faulty)",
                    None
                    if report.time_to_target_s is None
                    else round(report.time_to_target_s, 3),
                ],
                [
                    f"time to {100 * report.target_accuracy:.0f}% (no faults)",
                    None
                    if report.baseline_time_to_target_s is None
                    else round(report.baseline_time_to_target_s, 3),
                ],
                [
                    "time-to-target slip [s]",
                    None
                    if report.time_to_target_slip_s is None
                    else round(report.time_to_target_slip_s, 3),
                ],
            ]
        )
    return render_table(
        ["metric", "value"], rows, title="Degradation under faults"
    )
