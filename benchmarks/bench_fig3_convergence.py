"""Fig. 3 — top-1 validation accuracy vs training round, 7 algorithms.

Regenerates the accuracy-vs-progress curves on both scaled workloads and
checks the paper's qualitative claims: every method converges; SAPS-PSGD
tracks D-PSGD closely; PSGD is the accuracy upper bound (within noise).
"""

import numpy as np

from repro.analysis import render_ascii_plot, render_series
from benchmarks.conftest import write_output


def render_fig3(results, label):
    lines = [f"Fig. 3 ({label}) — accuracy vs round"]
    series = {}
    for name, result in results.items():
        xs, ys = result.series("round_index")
        series[name] = (xs, ys)
        lines.append(render_series(name, xs, ys, "round", "top-1 acc"))
    lines.append(render_ascii_plot(series))
    return "\n".join(lines)


def test_fig3_convergence_mlp(mlp_results):
    text = render_fig3(mlp_results, "MLP workload")
    write_output("fig3_convergence_mlp.txt", text)

    final = {name: r.final_accuracy for name, r in mlp_results.items()}
    # Everyone learns.
    for name, accuracy in final.items():
        assert accuracy > 0.5, f"{name} failed to converge: {accuracy}"
    # Paper: SAPS-PSGD has similar convergence to D-PSGD.
    assert final["SAPS-PSGD"] >= final["D-PSGD"] - 0.08
    # Paper: PSGD is the (near-)best final accuracy.
    assert final["PSGD"] >= max(final.values()) - 0.05


def test_fig3_convergence_cnn(cnn_results):
    text = render_fig3(cnn_results, "CNN workload")
    write_output("fig3_convergence_cnn.txt", text)

    final = {name: r.final_accuracy for name, r in cnn_results.items()}
    for name, accuracy in final.items():
        assert accuracy > 0.4, f"{name} failed to converge: {accuracy}"
    assert final["SAPS-PSGD"] >= final["D-PSGD"] - 0.1
