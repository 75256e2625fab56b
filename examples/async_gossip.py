"""Asynchronous gossip walkthrough: simulated wall-clock training.

The paper's headline result is communication *time*: SAPS-PSGD wins
because adaptive peer selection avoids slow WAN links.  The event engine
(:mod:`repro.sim.events`) extends that story to the asynchronous regime:
no round barrier, so a straggler never gates the cluster.

This example runs the same workload three ways on one simulated clock —

1. synchronous SAPS-PSGD (:func:`run_experiment` with a compute model:
   every round is a compute barrier, then a communication barrier, and
   with telemetry on the round is also laid out per worker);
2. asynchronous SAPS-style gossip (:class:`AsyncGossip`: a pair
   exchanges masked components as soon as both endpoints are free);
3. AD-PSGD-style asynchronous decentralized SGD (:class:`AsyncDPSGD`:
   communication overlaps compute, staleness tracked per gradient) —

under *heterogeneous* compute (a 6x straggler spread), then prints the
time-to-target-accuracy table and the per-worker
compute/communication/idle breakdown that shows where the synchronous
barrier loses its time.

Run:  python examples/async_gossip.py
"""

from repro import obs
from repro.algorithms import AsyncDPSGD, AsyncGossip, SAPSPSGD
from repro.analysis import (
    render_time_to_accuracy,
    render_worker_timeline,
    time_to_accuracy_table,
    worker_timeline,
)
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.sim import (
    ExperimentConfig,
    HeterogeneousCompute,
    run_event_experiment,
    run_experiment,
)
from repro.nn import MLP


def main() -> None:
    num_workers = 8
    seed = 1

    full = make_blobs(num_samples=60 * num_workers + 200, rng=seed)
    train, validation = full.split(fraction=0.8, rng=seed)
    partitions = partition_iid(train, num_workers, rng=seed)
    bandwidth = random_uniform_bandwidth(num_workers, rng=seed)
    factory = lambda: MLP(32, [32], 10, rng=seed)
    config = ExperimentConfig(
        rounds=60, batch_size=16, lr=0.1, eval_every=10, seed=seed
    )

    # A mixed fleet: per-worker mean step times spread log-uniformly
    # over [0.05/sqrt(6), 0.05*sqrt(6)] seconds — the straggler regime.
    def compute_model():
        return HeterogeneousCompute(
            num_workers, mean_step_time=0.05, spread=6.0, jitter=0.0, rng=seed
        )

    results = {}

    # 1. Synchronous SAPS: every round waits for the slowest
    #    participant, then for the slowest exchange.  The metrics
    #    recorder is what makes the round loop keep per-worker intervals.
    obs.start("metrics")
    try:
        results["SAPS-PSGD (sync)"] = run_experiment(
            SAPSPSGD(compression_ratio=100.0, base_seed=seed),
            partitions, validation, factory, config,
            SimulatedNetwork(num_workers, bandwidth=bandwidth),
            compute_model=compute_model(),
        )
    finally:
        obs.stop()

    # 2/3. Asynchronous variants: same simulated-time budget as the sync
    #      run consumed, no barrier.
    horizon = results["SAPS-PSGD (sync)"].horizon
    results["Async-SAPS"] = run_event_experiment(
        AsyncGossip(compression_ratio=100.0, base_seed=seed),
        partitions, validation, factory, config,
        SimulatedNetwork(num_workers, bandwidth=bandwidth),
        compute_model=compute_model(),
        duration=horizon,
    )
    results["Async-D-PSGD"] = run_event_experiment(
        AsyncDPSGD(),
        partitions, validation, factory, config,
        SimulatedNetwork(num_workers, bandwidth=bandwidth),
        compute_model=compute_model(),
        duration=horizon,
    )

    sync = results["SAPS-PSGD (sync)"]
    print(
        f"Synchronous SAPS consumed {sync.horizon:.2f}s of simulated time "
        f"for {config.rounds} rounds; async variants get the same budget.\n"
    )

    target = 0.9 * min(result.best_accuracy for result in results.values())
    print(render_time_to_accuracy(time_to_accuracy_table(results, target)))
    # All three learned within the budget: history[0] is the untrained
    # snapshot both engines take before the first step.
    assert all(
        result.final_accuracy > result.history[0].val_accuracy
        for result in results.values()
    )

    for name in ("SAPS-PSGD (sync)", "Async-SAPS"):
        result = results[name]
        print(f"\n{name}:")
        print(render_worker_timeline(worker_timeline(result.trace, result.horizon)))

    async_result = results["Async-D-PSGD"]
    if async_result.staleness:
        mean = sum(async_result.staleness) / len(async_result.staleness)
        print(
            f"\nAsync-D-PSGD applied {len(async_result.staleness)} gradients, "
            f"mean staleness {mean:.2f} "
            f"(max {max(async_result.staleness)})."
        )


if __name__ == "__main__":
    main()
