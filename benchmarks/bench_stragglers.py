"""Straggler ablation: end-to-end time under heterogeneous compute.

The paper's Fig. 6 footnote says end-to-end time "can be obtained
accordingly" from the compute model.  This bench obtains it: the same
workload under a mixed fleet (log-uniform worker speeds, 16× spread)
shows where each algorithm's end-to-end time goes — synchronous
all-participate methods (PSGD, D-PSGD, SAPS) pay the straggler every
round, while FedAvg's sampling amortizes it; SAPS still wins end-to-end
because its communication term is negligible.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.network.transport import SimulatedNetwork
from repro.sim import (
    ExperimentConfig,
    HeterogeneousCompute,
    paper_algorithm_suite,
    run_experiment,
)
from benchmarks.conftest import BENCH_SETTINGS, write_output


def test_straggler_sensitivity(mlp_workload, bandwidth_32):
    partitions, validation, factory = mlp_workload
    num_workers = len(partitions)
    config = ExperimentConfig(
        rounds=40, batch_size=16, lr=0.1, eval_every=40, seed=77
    )
    compute = HeterogeneousCompute(
        num_workers, mean_step_time=0.05, spread=16.0, jitter=0.05, rng=7
    )

    def sweep():
        suite = paper_algorithm_suite(BENCH_SETTINGS)
        rows = []
        outcomes = {}
        for name in ["PSGD", "FedAvg", "D-PSGD", "SAPS-PSGD"]:
            network = SimulatedNetwork(
                num_workers, bandwidth=bandwidth_32,
                server_bandwidth=float(np.max(bandwidth_32)),
            )
            result = run_experiment(
                suite[name](), partitions, validation, factory, config,
                network, compute_model=compute,
            )
            outcomes[name] = result
            final = result.history[-1]
            rows.append(
                [
                    name,
                    round(final.comm_time_s, 3),
                    round(final.compute_time_s, 3),
                    round(final.time_s, 3),
                ]
            )
        text = render_table(
            ["Algorithm", "comm [s]", "compute [s]", "end-to-end [s]"],
            rows,
            title=(
                f"Straggler ablation — {num_workers} workers, 16x speed "
                f"spread, 40 rounds"
            ),
        )
        return text, outcomes

    text, outcomes = sweep()
    write_output("straggler_sensitivity.txt", text)

    finals = {name: r.history[-1] for name, r in outcomes.items()}
    # All-participate synchronous methods pay the same compute bill...
    assert finals["PSGD"].compute_time_s == pytest.approx(
        finals["SAPS-PSGD"].compute_time_s, rel=0.01
    )
    # ...FedAvg's sampling pays less compute (it skips the straggler in
    # the rounds it isn't sampled; local_steps=5 though, so compare the
    # per-step-normalized quantity).
    fedavg_per_step = finals["FedAvg"].compute_time_s / 5
    assert fedavg_per_step < finals["SAPS-PSGD"].compute_time_s
    # SAPS's end-to-end is compute-dominated: its comm share is tiny.
    saps = finals["SAPS-PSGD"]
    assert saps.comm_time_s < 0.1 * saps.time_s
    # PSGD's comm is a large share of its end-to-end time.
    psgd = finals["PSGD"]
    assert psgd.comm_time_s > saps.comm_time_s * 10

