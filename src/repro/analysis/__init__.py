"""Analysis utilities: analytic cost models, target extraction, rendering."""

from repro.analysis.traffic import (
    CostModel,
    cost_models_by_name,
    table1_costs,
    worker_cost_ranking,
)
from repro.analysis.targets import TargetCost, costs_at_target, pick_common_target
from repro.analysis.tables import (
    format_value,
    render_ascii_plot,
    render_series,
    render_table,
)
from repro.analysis.io import (
    load_comparison,
    load_result,
    save_comparison,
    save_result,
)
from repro.analysis.breakdown import (
    TrafficBreakdown,
    breakdown_traffic,
    compare_breakdowns,
    payload_size_histogram,
)
from repro.analysis.report import comparison_report
from repro.analysis.crossover import accuracy_at_cost, dominance_summary
from repro.analysis.resilience import (
    Degradation,
    ResilienceSummary,
    WorkerResilience,
    degradation_report,
    render_degradation,
    render_resilience_summary,
    render_worker_resilience,
    resilience_summary,
    worker_resilience_table,
)
from repro.analysis.timeline import (
    TimeToAccuracy,
    WorkerTimeline,
    mean_utilization,
    render_time_to_accuracy,
    render_worker_timeline,
    time_to_accuracy_table,
    worker_timeline,
)
from repro.analysis.obsreport import (
    PhaseRow,
    obs_worker_timeline,
    phase_table,
    render_obs_report,
    render_phase_table,
    render_top_counters,
    top_counters,
)

__all__ = [
    "CostModel",
    "table1_costs",
    "worker_cost_ranking",
    "cost_models_by_name",
    "TargetCost",
    "costs_at_target",
    "pick_common_target",
    "format_value",
    "render_table",
    "render_series",
    "render_ascii_plot",
    "save_result",
    "load_result",
    "save_comparison",
    "load_comparison",
    "TrafficBreakdown",
    "breakdown_traffic",
    "payload_size_histogram",
    "compare_breakdowns",
    "comparison_report",
    "accuracy_at_cost",
    "dominance_summary",
    "TimeToAccuracy",
    "WorkerTimeline",
    "time_to_accuracy_table",
    "render_time_to_accuracy",
    "worker_timeline",
    "render_worker_timeline",
    "mean_utilization",
    "ResilienceSummary",
    "WorkerResilience",
    "Degradation",
    "resilience_summary",
    "render_resilience_summary",
    "worker_resilience_table",
    "render_worker_resilience",
    "degradation_report",
    "render_degradation",
    "PhaseRow",
    "phase_table",
    "render_phase_table",
    "top_counters",
    "render_top_counters",
    "obs_worker_timeline",
    "render_obs_report",
]
