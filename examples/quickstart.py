"""Quickstart: train with SAPS-PSGD on a synthetic workload in ~5 seconds.

Demonstrates the minimal end-to-end path:

1. build a dataset and shard it across workers (the paper's ``D_p``);
2. pick a bandwidth environment;
3. run SAPS-PSGD and read accuracy / traffic / communication time.

Run:  python examples/quickstart.py
      python examples/quickstart.py --obs trace --trace-out trace.json
"""

import argparse
import json

from repro import obs
from repro.algorithms import SAPSPSGD
from repro.analysis import render_obs_report, render_table
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import ExperimentConfig, run_experiment


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="SAPS-PSGD quickstart")
    parser.add_argument(
        "--obs", choices=["off", "metrics", "trace"], default="off",
        help="telemetry mode (never changes the numbers)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="write the metrics snapshot JSON (implies --obs metrics)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="write a Chrome trace-event JSON (implies --obs trace)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    obs_mode = args.obs
    if args.trace_out:
        obs_mode = "trace"
    elif args.metrics_out and obs_mode == "off":
        obs_mode = "metrics"
    if obs_mode != "off":
        obs.start(obs_mode)

    num_workers = 8
    seed = 1

    # Data: one distribution, split into train/validation, sharded IID.
    full = make_blobs(num_samples=60 * num_workers + 200, rng=seed)
    train, validation = full.split(fraction=0.8, rng=seed)
    partitions = partition_iid(train, num_workers, rng=seed)

    # Network: the paper's 32-worker environment scaled down — pairwise
    # speeds uniform on (0, 5] MB/s.
    bandwidth = random_uniform_bandwidth(num_workers, rng=seed)
    network = SimulatedNetwork(num_workers, bandwidth=bandwidth)

    # Algorithm: SAPS-PSGD with the paper's compression ratio c=100.
    algorithm = SAPSPSGD(compression_ratio=100.0, base_seed=seed)
    config = ExperimentConfig(
        rounds=60, batch_size=16, lr=0.1, eval_every=10, seed=seed
    )
    result = run_experiment(
        algorithm,
        partitions,
        validation,
        model_factory=lambda: MLP(32, [32], 10, rng=seed),
        config=config,
        network=network,
    )

    rows = [
        [
            record.round_index,
            round(record.train_loss, 4),
            round(100 * record.val_accuracy, 2),
            round(record.worker_traffic_mb, 5),
            round(record.comm_time_s, 4),
        ]
        for record in result.history
    ]
    print(
        render_table(
            ["round", "train loss", "val acc [%]", "traffic [MB]", "time [s]"],
            rows,
            title=f"SAPS-PSGD quickstart ({num_workers} workers, c=100)",
        )
    )
    print(
        f"\nFinal accuracy {100 * result.final_accuracy:.2f}% after "
        f"{result.history[-1].worker_traffic_mb:.4f} MB per worker and "
        f"{result.history[-1].comm_time_s:.3f}s of communication."
    )
    # The run learned: history[0] is the untrained round -1 snapshot.
    assert result.final_accuracy > result.history[0].val_accuracy

    if obs_mode != "off":
        recorder = obs.recorder()
        snapshot = recorder.registry.snapshot()
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(snapshot, handle, indent=2)
            print(f"\nWrote metrics snapshot to {args.metrics_out}")
        if args.trace_out and recorder.trace is not None:
            recorder.trace.write(args.trace_out)
            print(f"Wrote Chrome trace to {args.trace_out}")
        print()
        print(render_obs_report(snapshot))
        obs.stop()


if __name__ == "__main__":
    main()
