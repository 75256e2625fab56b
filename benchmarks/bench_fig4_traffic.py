"""Fig. 4 — validation accuracy vs per-worker accumulated traffic (MB).

The paper's headline communication result: SAPS-PSGD reaches any given
accuracy with the smallest worker traffic; D-PSGD/DCD-PSGD need orders of
magnitude more.
"""

import numpy as np

from repro.analysis import (
    dominance_summary,
    pick_common_target,
    render_ascii_plot,
    render_series,
    render_table,
)
from benchmarks.conftest import write_output


def render_fig4(results, label):
    lines = [f"Fig. 4 ({label}) — accuracy vs per-worker traffic [MB]"]
    series = {}
    for name, result in results.items():
        xs, ys = result.series("worker_traffic_mb")
        series[name] = (xs, ys)
        lines.append(render_series(name, xs, ys, "MB", "top-1 acc"))
    positive = {
        name: ([x for x in xs if x > 0], ys[-len([x for x in xs if x > 0]):])
        for name, (xs, ys) in series.items()
    }
    lines.append(render_ascii_plot(positive, logx=True))
    return "\n".join(lines)


def test_fig4_traffic_mlp(mlp_results):
    text = render_fig4(mlp_results, "MLP workload")
    write_output("fig4_traffic_mlp.txt", text)

    target = pick_common_target(mlp_results, fraction_of_best=0.85)
    cost = {
        name: result.cost_to_reach(target, "worker_traffic_mb")
        for name, result in mlp_results.items()
    }
    assert all(value is not None for value in cost.values()), cost
    # SAPS-PSGD is the cheapest way to the common target.
    assert min(cost, key=cost.get) == "SAPS-PSGD"
    # And beats the dense decentralized baseline by a large factor
    # (paper: 100x+; scaled workload with c=20: >=10x).
    assert cost["D-PSGD"] / cost["SAPS-PSGD"] > 10.0


def test_fig4_frontier_dominance(mlp_results):
    """Where do the Fig. 4 curves cross?  SAPS-PSGD must lead the
    accuracy-at-budget frontier for the majority of (log-spaced) traffic
    budgets — the strongest form of "SAPS spends the smallest amount of
    communication to achieve the same level of accuracy"."""

    def analyze():
        summary = dominance_summary(mlp_results, resolution=120)
        rows = sorted(
            ([name, round(share, 3)] for name, share in summary.items()),
            key=lambda row: -row[1],
        )
        text = render_table(
            ["Algorithm", "share of traffic budgets led"],
            rows, title="Fig. 4 frontier dominance (traffic budgets)",
        )
        return text, summary

    text, summary = analyze()
    write_output("fig4_dominance.txt", text)
    assert max(summary, key=summary.get) == "SAPS-PSGD"
    # At saturating budgets every algorithm ties at top accuracy and the
    # credit splits 7 ways, so "majority" means: SAPS leads with at
    # least twice the runner-up's share.
    runner_up = sorted(summary.values())[-2]
    assert summary["SAPS-PSGD"] >= 2 * runner_up


def test_fig4_traffic_cnn(cnn_results):
    text = render_fig4(cnn_results, "CNN workload")
    write_output("fig4_traffic_cnn.txt", text)

    target = pick_common_target(cnn_results, fraction_of_best=0.8)
    cost = {
        name: result.cost_to_reach(target, "worker_traffic_mb")
        for name, result in cnn_results.items()
    }
    reached = {k: v for k, v in cost.items() if v is not None}
    assert "SAPS-PSGD" in reached
    assert reached["SAPS-PSGD"] == min(reached.values())
