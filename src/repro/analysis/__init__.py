"""Analysis utilities: analytic cost models, target extraction, rendering."""

from repro.analysis.traffic import (
    cost_models_by_name,
    table1_costs,
    worker_cost_ranking,
)
from repro.analysis.targets import costs_at_target, pick_common_target
from repro.analysis.tables import (
    render_ascii_plot,
    render_series,
    render_table,
)
from repro.analysis.crossover import dominance_summary
from repro.analysis.resilience import (
    degradation_report,
    render_degradation,
    render_resilience_summary,
    render_worker_resilience,
    resilience_summary,
    worker_resilience_table,
)
from repro.analysis.timeline import (
    render_time_to_accuracy,
    render_worker_timeline,
    time_to_accuracy_table,
    worker_timeline,
)
from repro.analysis.obsreport import render_obs_report

__all__ = [
    "table1_costs",
    "worker_cost_ranking",
    "cost_models_by_name",
    "costs_at_target",
    "pick_common_target",
    "render_table",
    "render_series",
    "render_ascii_plot",
    "dominance_summary",
    "time_to_accuracy_table",
    "render_time_to_accuracy",
    "worker_timeline",
    "render_worker_timeline",
    "resilience_summary",
    "render_resilience_summary",
    "worker_resilience_table",
    "render_worker_resilience",
    "degradation_report",
    "render_degradation",
    "render_obs_report",
]
