"""CI fault-matrix smoke: one short crash/recovery scenario per family.

Each family runs a small workload under a scripted crash + recovery and
must (a) complete, (b) produce a finite, sane accuracy, and (c) — for
the event-engine families — actually record the crash and the restore.

Families:

* ``sync-saps``   — synchronous SAPS-PSGD reading the plan over each
  round's window;
* ``async-gossip`` — AsyncGossip on the event engine, checkpoint restore;
* ``async-fedavg`` — AsyncFedAvg on the event engine, peer restore;
* ``async-dpsgd``  — AsyncDPSGD on the event engine, cold restore.

Run:  PYTHONPATH=src python benchmarks/fault_smoke.py [--family NAME]
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.algorithms import AsyncDPSGD, AsyncFedAvg, AsyncGossip, SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.resilience import ExchangePolicy, make_recovery_policy
from repro.sim import (
    ConstantCompute,
    ExperimentConfig,
    run_event_experiment,
    run_experiment,
)
from repro.sim.faults import FaultPlan

SEED = 11
WORKERS = 6


def _workload():
    full = make_blobs(
        num_samples=260, num_classes=3, num_features=6, rng=SEED
    )
    train, validation = full.split(fraction=0.8, rng=SEED)
    partitions = partition_iid(train, WORKERS, rng=SEED)
    return partitions, validation, lambda: MLP(6, [8], 3, rng=SEED)


def _check_accuracy(name: str, accuracy: float) -> None:
    if not math.isfinite(accuracy):
        raise SystemExit(f"{name}: non-finite accuracy {accuracy}")
    if not 0.0 <= accuracy <= 1.0:
        raise SystemExit(f"{name}: accuracy {accuracy} outside [0, 1]")
    print(f"{name}: completed, final accuracy {accuracy:.3f}")


def sync_saps() -> None:
    partitions, validation, factory = _workload()
    plan = FaultPlan.parse("crash:1@3,recover:1@8,link_down:0-2@2,link_up:0-2@6",
                           WORKERS)
    algorithm = SAPSPSGD(compression_ratio=5.0, base_seed=SEED, fault_plan=plan)
    result = run_experiment(
        algorithm, partitions, validation, factory,
        ExperimentConfig(rounds=12, eval_every=4, lr=0.2, seed=SEED),
        SimulatedNetwork(WORKERS),
    )
    _check_accuracy("sync-saps", result.final_accuracy)


def _async(name: str, algorithm, recovery: str) -> None:
    partitions, validation, factory = _workload()
    plan = FaultPlan.parse("crash:1@1.0,recover:1@2.2", WORKERS)
    result = run_event_experiment(
        algorithm, partitions, validation, factory,
        ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=SEED),
        SimulatedNetwork(
            WORKERS, bandwidth=random_uniform_bandwidth(WORKERS, rng=SEED)
        ),
        compute_model=ConstantCompute(0.05), duration=4.0,
        fault_plan=plan,
        exchange_policy=ExchangePolicy(timeout=1.0, seed=SEED),
        recovery=make_recovery_policy(recovery, checkpoint_interval=0.5),
    )
    stats = result.resilience
    if stats is None or stats.crashes != [(1, 1.0)]:
        raise SystemExit(f"{name}: crash was not recorded: {stats}")
    if len(stats.restores) != 1:
        raise SystemExit(f"{name}: expected 1 restore, got {stats.restores}")
    _check_accuracy(name, result.final_accuracy)


FAMILIES = {
    "sync-saps": sync_saps,
    "async-gossip": lambda: _async(
        "async-gossip",
        AsyncGossip(compression_ratio=5.0, base_seed=SEED),
        "checkpoint",
    ),
    "async-fedavg": lambda: _async("async-fedavg", AsyncFedAvg(), "peer"),
    "async-dpsgd": lambda: _async("async-dpsgd", AsyncDPSGD(), "cold"),
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--family", choices=sorted(FAMILIES), default=None,
        help="run one family (default: all)",
    )
    args = parser.parse_args(argv)
    names = [args.family] if args.family else sorted(FAMILIES)
    for name in names:
        FAMILIES[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
