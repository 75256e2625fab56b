"""Fig. 6 — validation accuracy vs communication time (seconds).

Combines Fig. 4's traffic with the bandwidth model: decentralized rounds
cost ``bytes / link-bandwidth`` on the slowest active link; the
centralized baselines are served by the best-connected node (the paper's
convention).  SAPS-PSGD's win grows relative to Fig. 4 because it both
ships less *and* ships over better links.
"""

import numpy as np

from repro.analysis import pick_common_target, render_series
from benchmarks.conftest import write_output


def render_fig6(results, label):
    lines = [f"Fig. 6 ({label}) — accuracy vs communication time [s]"]
    for name, result in results.items():
        xs, ys = result.series("comm_time_s")
        lines.append(render_series(name, xs, ys, "s", "top-1 acc"))
    return "\n".join(lines)


def test_fig6_comm_time(mlp_results):
    text = render_fig6(mlp_results, "MLP workload")
    write_output("fig6_comm_time.txt", text)

    target = pick_common_target(mlp_results, fraction_of_best=0.85)
    time_cost = {
        name: result.cost_to_reach(target, "comm_time_s")
        for name, result in mlp_results.items()
    }
    assert all(value is not None for value in time_cost.values()), time_cost
    # SAPS-PSGD reaches the target in the least communication time.
    assert min(time_cost, key=time_cost.get) == "SAPS-PSGD"
    # The time gap over D-PSGD exceeds the traffic gap (adaptive peer
    # selection compounds with sparsification) — Table IV's pattern.
    traffic_cost = {
        name: result.cost_to_reach(target, "worker_traffic_mb")
        for name, result in mlp_results.items()
    }
    time_ratio = time_cost["D-PSGD"] / time_cost["SAPS-PSGD"]
    traffic_ratio = traffic_cost["D-PSGD"] / traffic_cost["SAPS-PSGD"]
    assert time_ratio >= traffic_ratio
