"""Fault-tolerance walkthrough: crash, recover, and count the damage.

The paper's setting — federated workers on consumer hardware and WAN
links — makes failure the normal case, not the exception.  This example
runs the asynchronous SAPS-style gossip variant twice on the same
simulated clock and seed:

1. a fault-free baseline;
2. the same run with a scripted fault plan — worker 2 crashes at
   t=30 s mid-training and comes back at t=40 s via **peer-fetch
   recovery** (it re-downloads a live neighbor's current model over
   the fastest link, paying the transfer), while a WAN link outage
   hits (0, 1) for ten seconds.

Survivors that were mid-exchange with the crashed worker hit their
per-exchange deadline, retry with exponential backoff, and finally
re-match elsewhere — training never stalls.  The report at the end is
the robustness scorecard: exchange goodput, retries, per-worker
downtime/MTTR, and the accuracy + time-to-target degradation against
the fault-free twin.

Run:  python examples/fault_tolerance.py
"""

from repro.algorithms import AsyncGossip
from repro.analysis import (
    degradation_report,
    render_degradation,
    render_resilience_summary,
    render_worker_resilience,
    resilience_summary,
    worker_resilience_table,
)
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.resilience import ExchangePolicy, make_recovery_policy
from repro.sim import (
    ExperimentConfig,
    HeterogeneousCompute,
    run_event_experiment,
)
from repro.sim.faults import FaultPlan


def main() -> None:
    num_workers = 8
    seed = 1
    duration = 60.0

    # Separation 1.2 makes the blobs genuinely hard: accuracy is still
    # climbing when the faults hit, so the degradation is visible.
    full = make_blobs(
        num_samples=60 * num_workers + 200, separation=1.2, rng=seed
    )
    train, validation = full.split(fraction=0.8, rng=seed)
    partitions = partition_iid(train, num_workers, rng=seed)
    bandwidth = random_uniform_bandwidth(num_workers, rng=seed)
    factory = lambda: MLP(32, [32], 10, rng=seed)
    config = ExperimentConfig(
        rounds=60, batch_size=16, lr=0.02, eval_every=10, seed=seed
    )

    def run(fault_plan=None):
        return run_event_experiment(
            AsyncGossip(compression_ratio=100.0, base_seed=seed),
            partitions, validation, factory, config,
            SimulatedNetwork(num_workers, bandwidth=bandwidth),
            # A straggler spread desynchronizes the cycles, so pairings
            # wander across the whole fleet (and across the faulty link).
            compute_model=HeterogeneousCompute(
                num_workers, mean_step_time=0.2, spread=6.0, jitter=0.0,
                rng=seed,
            ),
            duration=duration,
            checkpoint_every=2.0,
            fault_plan=fault_plan,
            exchange_policy=ExchangePolicy(timeout=1.0, seed=seed),
            recovery=make_recovery_policy("peer"),
        )

    # 1. The fault-free twin (a fault plan of None is bit-identical to
    #    not wiring the fault machinery at all).
    baseline = run()

    # 2. The same run under the scripted scenario.  The plan grammar is
    #    the CLI's: "crash:2@30,recover:2@40,link_down:0-3@10,link_up:0-3@15".
    plan = FaultPlan.parse(
        "crash:2@30,recover:2@40,link_down:0-1@10,link_up:0-1@20",
        num_workers,
    )
    faulty = run(plan)

    stats = faulty.resilience
    print(render_resilience_summary(resilience_summary(stats)))
    print()
    print(render_worker_resilience(worker_resilience_table(stats, duration)))
    print()

    restored_by = {policy for _, policy, _ in stats.restores}
    print(
        f"Worker 2 was down {stats.worker_downtime_seconds(2):.1f}s and "
        f"restarted via {sorted(restored_by)} recovery "
        f"(restored-state staleness "
        f"{stats.mean_restore_staleness() or 0.0:.2f}s).\n"
    )

    # 3. What the faults cost: accuracy deltas and the time-to-target
    #    slip against the fault-free twin.
    target = 0.9 * baseline.best_accuracy
    degradation = degradation_report(faulty, baseline, target)
    print(render_degradation(degradation))
    # Training never stalled: the faulted run ran out its clock with the
    # crashed worker back, and still reached the twin's target (the slip
    # is None when either run never does).
    assert (
        faulty.horizon == duration
        and len(stats.recoveries) == 1
        and degradation.time_to_target_slip_s is not None
    )


if __name__ == "__main__":
    main()
