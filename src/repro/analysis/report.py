"""Markdown report generation from comparison trajectories.

Turns a ``{algorithm: ExperimentResult}`` mapping (live, or loaded from
``repro.analysis.io``) into a self-contained markdown report with the
paper's three summary views: final accuracy (Table III), cost-to-target
(Table IV) and the accuracy-vs-traffic frontier (Fig. 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.targets import costs_at_target, pick_common_target
from repro.analysis.tables import format_value
from repro.sim.engine import ExperimentResult


def _markdown_table(headers: List[str], rows: List[List]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(format_value(cell) for cell in row) + " |"
        )
    return "\n".join(lines)


def comparison_report(
    results: Dict[str, ExperimentResult],
    title: str = "Algorithm comparison",
    target_accuracy: Optional[float] = None,
    target_fraction: float = 0.85,
) -> str:
    """Render a full markdown report for one comparison run."""
    if not results:
        raise ValueError("results must not be empty")
    sections = [f"# {title}", ""]

    config = next(iter(results.values())).config
    sections.append(
        f"Workload: {config.rounds} rounds, batch {config.batch_size}, "
        f"lr {config.lr}, seed {config.seed}."
    )
    sections.append("")

    # --- Table III view -------------------------------------------------
    sections.append("## Final accuracy (Table III view)")
    sections.append("")
    rows = [
        [
            name,
            round(100 * result.final_accuracy, 2),
            round(100 * result.best_accuracy, 2),
            round(result.history[-1].worker_traffic_mb, 5),
            round(result.history[-1].comm_time_s, 4),
        ]
        for name, result in results.items()
    ]
    sections.append(
        _markdown_table(
            ["Algorithm", "final acc [%]", "best acc [%]",
             "traffic [MB]", "time [s]"],
            rows,
        )
    )
    sections.append("")

    # --- Table IV view --------------------------------------------------
    if target_accuracy is None:
        target_accuracy = pick_common_target(results, target_fraction)
    sections.append(
        f"## Cost to reach {100 * target_accuracy:.1f}% accuracy "
        f"(Table IV view)"
    )
    sections.append("")
    target_rows = [
        [
            row.algorithm,
            "yes" if row.reached else "no",
            row.traffic_mb if row.traffic_mb is None else round(row.traffic_mb, 5),
            row.time_seconds
            if row.time_seconds is None
            else round(row.time_seconds, 4),
        ]
        for row in costs_at_target(results, target_accuracy)
    ]
    sections.append(
        _markdown_table(
            ["Algorithm", "reached", "traffic [MB]", "time [s]"], target_rows
        )
    )
    sections.append("")

    # --- Fig. 4 frontier ------------------------------------------------
    sections.append("## Accuracy vs traffic (Fig. 4 view)")
    sections.append("")
    for name, result in results.items():
        xs, ys = result.series("worker_traffic_mb")
        points = ", ".join(
            f"({format_value(float(x))} MB, {100 * y:.1f}%)"
            for x, y in zip(xs, ys)
        )
        sections.append(f"- **{name}**: {points}")
    sections.append("")

    # --- winner ----------------------------------------------------------
    reached = [
        row for row in costs_at_target(results, target_accuracy) if row.reached
    ]
    if reached:
        cheapest = min(reached, key=lambda row: row.traffic_mb)
        sections.append(
            f"**Cheapest to target:** {cheapest.algorithm} "
            f"({format_value(cheapest.traffic_mb)} MB)."
        )
    return "\n".join(sections)
