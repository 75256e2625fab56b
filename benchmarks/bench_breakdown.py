"""Traffic breakdown bench: where each algorithm's bytes go.

Table I's totals, decomposed from *measured* transfers: peer-to-peer vs
server traffic, per-worker balance, and payload-size modes (shared-mask
payloads are index-free; top-k payloads pay 2x for indices).
"""

import numpy as np

from repro.analysis import render_table
from repro.analysis.breakdown import (
    breakdown_traffic,
    compare_breakdowns,
    payload_size_histogram,
)
from repro.network.transport import SimulatedNetwork
from repro.sim import ExperimentConfig, make_workers, paper_algorithm_suite, SuiteSettings
from benchmarks.conftest import BENCH_SETTINGS, write_output


def test_traffic_breakdown(mlp_workload, bandwidth_32):
    partitions, validation, factory = mlp_workload
    config = ExperimentConfig(
        rounds=20, batch_size=16, lr=0.1, eval_every=20, seed=50
    )

    def sweep():
        suite = paper_algorithm_suite(BENCH_SETTINGS)
        breakdowns = {}
        meters = {}
        for name, algorithm_factory in suite.items():
            network = SimulatedNetwork(
                len(partitions), bandwidth=bandwidth_32,
                server_bandwidth=float(np.max(bandwidth_32)),
            )
            algorithm = algorithm_factory()
            workers = make_workers(factory, partitions, config)
            algorithm.setup(workers, network, rng=50)
            for t in range(config.rounds):
                algorithm.run_round(t)
            breakdowns[name] = breakdown_traffic(network.meter)
            meters[name] = network.meter
        text = render_table(
            ["Algorithm", "peer<->peer [MB]", "server [MB]",
             "mean/worker [MB]", "imbalance"],
            compare_breakdowns(breakdowns),
            title="Traffic breakdown over 20 rounds (measured transfers)",
        )
        return text, breakdowns, meters

    text, breakdowns, meters = sweep()
    write_output("traffic_breakdown.txt", text)

    # Decentralized algorithms never touch the server during training.
    for name in ["PSGD", "TopK-PSGD", "D-PSGD", "DCD-PSGD", "SAPS-PSGD"]:
        b = breakdowns[name]
        assert b.worker_to_server_mb == 0
        assert b.server_to_worker_mb == 0
    # Centralized algorithms have zero peer traffic.
    for name in ["FedAvg", "S-FedAvg"]:
        assert breakdowns[name].peer_to_peer_mb == 0
    # SAPS per-worker mean is the smallest.
    means = {
        name: float((b.worker_up + b.worker_down).mean())
        for name, b in breakdowns.items()
    }
    assert min(means, key=means.get) == "SAPS-PSGD"
    # Client sampling (FedAvg) is less balanced than all-participate SAPS.
    assert breakdowns["FedAvg"].imbalance() >= breakdowns["SAPS-PSGD"].imbalance()
    # SAPS payloads form a single size mode (values-only, fixed N/c-ish).
    histogram = payload_size_histogram(meters["SAPS-PSGD"])
    assert sum(histogram["counts"]) > 0
