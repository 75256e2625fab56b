"""SAPS-PSGD on the paper's *actual* ResNet-20 (269,722 parameters).

Everything else in this repository uses scaled models for speed; this
example runs a short smoke of the real architecture from Table II —
ResNet-20 with option-A shortcuts on CIFAR-shaped synthetic data —
through the full SAPS-PSGD stack (coordinator, random masks, adaptive
matching, traffic accounting), then two rounds of PSGD, whose gradient
all-reduce takes each worker's gradient through the per-worker compute
loop ResNet-20's batch norm needs.  Pure-numpy conv is slow, so this is a
handful of rounds with small batches.

Run:  python examples/resnet20_smoke.py
"""

import time
from dataclasses import replace

import numpy as np

from repro.algorithms import PSGD, SAPSPSGD
from repro.analysis import render_table
from repro.data import partition_iid, synthetic_cifar10
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import ResNet20
from repro.sim import ExperimentConfig, run_experiment

NUM_WORKERS = 2
ROUNDS = 6


def main() -> None:
    model = ResNet20(rng=0)
    print(
        f"ResNet-20: {model.num_parameters():,} parameters "
        f"(paper Table II: 269,722), depth {model.depth}"
    )
    assert model.num_parameters() == 269_722

    full = synthetic_cifar10(num_samples=80, rng=0)
    train, validation = full.split(fraction=0.75, rng=0)
    partitions = partition_iid(train, NUM_WORKERS, rng=0)
    network = SimulatedNetwork(
        NUM_WORKERS, bandwidth=random_uniform_bandwidth(NUM_WORKERS, rng=0)
    )
    config = ExperimentConfig(
        rounds=ROUNDS, batch_size=4, lr=0.1, eval_every=2, seed=0
    )

    start = time.time()
    result = run_experiment(
        SAPSPSGD(compression_ratio=100.0, base_seed=0),
        partitions, validation,
        model_factory=lambda: ResNet20(rng=0),
        config=config,
        network=network,
    )
    elapsed = time.time() - start

    rows = [
        [
            record.round_index,
            round(record.train_loss, 4),
            round(100 * record.val_accuracy, 1),
            round(record.worker_traffic_mb, 4),
        ]
        for record in result.history
    ]
    print(
        render_table(
            ["round", "train loss", "val acc [%]", "traffic [MB]"],
            rows,
            title=f"SAPS-PSGD x ResNet-20 smoke ({elapsed:.1f}s wall-clock)",
        )
    )
    dense_mb = model.num_parameters() * 4 / (1024 * 1024)
    per_round = result.history[-1].worker_traffic_mb / ROUNDS
    print(
        f"\nDense model: {dense_mb:.2f} MB; measured ≈{per_round:.4f} MB per"
        f" worker per round — the 2N/c sparsified exchange, on the real"
        f" architecture."
    )

    psgd = run_experiment(
        PSGD(), partitions, validation,
        model_factory=lambda: ResNet20(rng=0),
        config=replace(config, rounds=2, eval_every=2),
        network=network,
    )
    losses = [record.train_loss for record in psgd.history if record.round_index >= 0]
    print(f"PSGD x ResNet-20, 2 rounds: train loss {losses[-1]:.4f}")
    assert losses and all(np.isfinite(losses))


if __name__ == "__main__":
    main()
