"""Run profiles from recorded telemetry (:mod:`repro.obs`) snapshots.

A :meth:`~repro.obs.registry.MetricsRegistry.snapshot` — live, or loaded
back from a ``--metrics-out`` JSON file — is enough to reconstruct the
reports the engines print from their in-memory state:

* :func:`phase_table` — where the wall time went, per ``phase.*`` span
  family (total vs self time, call counts, share of the run);
* :func:`memory_table` — how far each phase raised the peak RSS;
* :func:`top_counters` — the largest non-phase counters (traffic,
  compression savings, exchange outcomes, arena residency churn);
* :func:`obs_worker_timeline` — the per-worker compute/comm/idle
  breakdown of :func:`repro.analysis.timeline.worker_timeline`,
  rebuilt from the ``worker.<rank>.*`` counters and the ``run.horizon_s``
  gauge alone.  Both build each row with
  :func:`~repro.analysis.timeline.timeline_row`, so the two reports can
  never disagree on a recorded run.

``render_obs_report`` stitches them into the one-screen profile the CLI
prints after an instrumented run, naming the phase that set the peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import render_table
from repro.analysis.timeline import WorkerTimeline, timeline_row


@dataclass
class PhaseRow:
    """One span family's aggregate timing."""

    name: str
    count: int
    total_s: float
    self_s: float
    share: float  # fraction of the summed self time across all phases


def phase_table(snapshot: Dict) -> List[PhaseRow]:
    """Per-phase timing rows from a registry snapshot, largest self first.

    ``share`` is each phase's fraction of the *self*-time sum — self
    times are disjoint by construction (a span's self time excludes its
    children), so the shares add to 1 without double counting nests.
    """
    counters = snapshot.get("counters", {})
    names = sorted(
        key[len("phase."):-len(".total_s")]
        for key in counters
        if key.startswith("phase.") and key.endswith(".total_s")
    )
    self_sum = sum(
        counters.get(f"phase.{name}.self_s", 0.0) for name in names
    )
    rows = [
        PhaseRow(
            name=name,
            count=int(counters.get(f"phase.{name}.count", 0)),
            total_s=float(counters.get(f"phase.{name}.total_s", 0.0)),
            self_s=float(counters.get(f"phase.{name}.self_s", 0.0)),
            share=(
                float(counters.get(f"phase.{name}.self_s", 0.0)) / self_sum
                if self_sum > 0
                else 0.0
            ),
        )
        for name in names
    ]
    rows.sort(key=lambda row: row.self_s, reverse=True)
    return rows


def render_phase_table(rows: List[PhaseRow]) -> str:
    if not rows:
        raise ValueError("rows must not be empty")
    table = [
        [
            row.name,
            row.count,
            round(row.total_s, 4),
            round(row.self_s, 4),
            f"{100 * row.share:.1f}%",
        ]
        for row in rows
    ]
    return render_table(
        ["phase", "count", "total [s]", "self [s]", "share"],
        table,
        title="Phase time breakdown",
    )


def memory_table(snapshot: Dict) -> List[List]:
    """``[phase, MB it raised the peak RSS by, MB the peak then reached]``
    from the ``mem.<phase>.*`` records, largest raise first."""
    level = snapshot.get("gauges", {}).get
    rows = [[key[4:-14], round(kb / 1024, 2), round(level(key[:-8] + "rss_kb", 0) / 1024, 2)]
            for key, kb in snapshot.get("counters", {}).items() if key.startswith("mem.")]
    return sorted(rows, key=lambda row: -row[1])


def top_counters(snapshot: Dict) -> List[List]:
    """The ten largest non-phase, non-memory, non-worker counters.

    Phase timings and peak raises get their own tables and the per-worker
    mirrors feed :func:`obs_worker_timeline`; everything else (traffic, compression,
    exchange outcomes, arena churn) ranks here by magnitude.
    """
    counters = snapshot.get("counters", {})
    rows = [
        [name, value]
        for name, value in counters.items()
        if not name.startswith(("phase.", "worker.", "mem."))
    ]
    rows.sort(key=lambda row: abs(row[1]), reverse=True)
    return [[name, round(value, 4)] for name, value in rows[:10]]


def render_top_counters(rows: List[List]) -> str:
    if not rows:
        raise ValueError("rows must not be empty")
    return render_table(["counter", "value"], rows, title="Top counters")


def obs_worker_timeline(snapshot: Dict) -> List[WorkerTimeline]:
    """Rebuild :func:`repro.analysis.timeline.worker_timeline` rows from
    a metrics snapshot alone.

    Requires the ``run.horizon_s`` gauge and the ``worker.<rank>.*``
    counters that :func:`repro.obs.record_worker_timeline` mirrors at
    the end of an instrumented engine run.
    """
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    horizon = float(gauges.get("run.horizon_s", 0.0))
    if horizon <= 0:
        raise ValueError(
            "snapshot has no positive run.horizon_s gauge — was the run "
            "recorded with telemetry enabled on a timed engine?"
        )
    workers = sorted(
        int(key.split(".")[1])
        for key in counters
        if key.startswith("worker.") and key.endswith(".compute_s")
    )
    if not workers:
        raise ValueError("snapshot has no worker.<rank>.compute_s counters")
    return [
        timeline_row(
            worker,
            float(counters.get(f"worker.{worker}.compute_s", 0.0)),
            float(counters.get(f"worker.{worker}.comm_s", 0.0)),
            horizon,
        )
        for worker in workers
    ]


def render_obs_report(snapshot: Dict) -> str:
    """The one-screen profile: phases, top counters, worker utilization."""
    sections = []
    phases = phase_table(snapshot)
    if phases:
        sections.append(render_phase_table(phases))
    memory = memory_table(snapshot)
    if memory:  # the phase whose raise reached the highest level set the peak
        phase, _, level = max(memory, key=lambda row: row[2])
        sections.append(render_table(["phase", "peak raise [MB]", "peak reached [MB]"], memory,
                                     title=f"Peak RSS by phase (set in {phase}: {level} MB)"))
    counters = top_counters(snapshot)
    if counters:
        sections.append(render_top_counters(counters))
    try:
        timeline_rows = obs_worker_timeline(snapshot)
    except ValueError:
        timeline_rows = []
    if timeline_rows:
        from repro.analysis.timeline import render_worker_timeline

        sections.append(render_worker_timeline(timeline_rows))
    if not sections:
        return "(no telemetry recorded)"
    return "\n\n".join(sections)
