"""Table I — analytic communication-cost comparison.

Regenerates the paper's Table I with the paper's own parameters
(N = model size, n = 32 workers, c per algorithm) and checks the
orderings the table asserts.  This bench is exact — no simulation.
"""

import pytest

from repro.analysis import (
    cost_models_by_name,
    render_table,
    table1_costs,
    worker_cost_ranking,
)
from benchmarks.conftest import write_output

MODEL_SIZE = 6_653_628  # the paper's MNIST-CNN parameter count
NUM_WORKERS = 32
ROUNDS = 1000


def build_table():
    costs = table1_costs(
        model_size=MODEL_SIZE,
        num_workers=NUM_WORKERS,
        rounds=ROUNDS,
        compression_ratio=100.0,
    )
    rows = [
        [
            cost.algorithm,
            cost.server_cost,
            cost.worker_cost,
            cost.supports_sparsification,
            cost.considers_bandwidth,
            cost.robust_to_dynamics,
        ]
        for cost in costs
    ]
    text = render_table(
        ["Algorithm", "Server cost", "Worker cost", "SP.", "C.B.", "R."],
        rows,
        title=(
            f"Table I — communication cost (values transmitted), "
            f"N={MODEL_SIZE}, n={NUM_WORKERS}, T={ROUNDS}"
        ),
    )
    return costs, text


def test_table1_comm_cost():
    costs, text = build_table()
    write_output("table1_comm_cost.txt", text)

    by_name = cost_models_by_name(costs)
    # The paper's headline orderings, exactly.
    assert worker_cost_ranking(costs)[0] == "SAPS-PSGD"
    assert by_name["SAPS-PSGD"].worker_cost < by_name["DCD-PSGD"].worker_cost
    assert by_name["DCD-PSGD"].worker_cost < by_name["D-PSGD"].worker_cost
    assert by_name["S-FedAvg"].worker_cost < by_name["FedAvg"].worker_cost
    assert by_name["TopK-PSGD"].worker_cost < by_name["PSGD (all-reduce)"].worker_cost
    # Decentralized methods have O(N) server cost; centralized O(NnT).
    assert by_name["SAPS-PSGD"].server_cost == MODEL_SIZE
    assert by_name["FedAvg"].server_cost == 2 * MODEL_SIZE * NUM_WORKERS * ROUNDS
