"""Million-enrolled-client federated learning on a laptop — two families.

Cross-device federated learning enrolls populations far larger than any
round's participant set: a million phones register, a few hundred are
up, idle and charging when a round samples.  Simulating that regime
needs every per-client cost to be lazy.  This example demos both
execution families on the same lazy substrate:

* ``--family fedavg`` (default) — :class:`~repro.algorithms.
  SampledAsyncFedAvg`: a K-seat in-flight participant pool with FedAsync
  staleness-weighted server mixing, driven by the calendar-queue event
  engine over a :class:`~repro.sim.RenewalPopulation`;
* ``--family gossip`` — :class:`~repro.algorithms.SampledSAPS`:
  sampled-neighborhood SAPS-PSGD, where each round draws participants
  through the shared participation layer, max-weight-matches *within*
  the sample on lazily seeded bottleneck-link bandwidths, and runs the
  paper's shared-mask Eq. (7) exchange on pinned
  :class:`~repro.nn.sharded.ShardedArena` rows (writeback on eviction — gossip
  state is peer-to-peer, it must survive between participations).

Both report resident bytes per enrolled client plus the arena's pin
telemetry (``pin_contentions``, ``peak_pins``) — the honest scale
numbers.  A dense arena at the same enrolment would need
``2 * n * model_size * 8`` bytes (~5 GB at the defaults); here the
arena stays in the low MB.

Run:  python examples/million_clients.py
      python examples/million_clients.py --clients 50000 --sim-time 20
      python examples/million_clients.py --family gossip --clients 100000
"""

import argparse
import time

import numpy as np

from repro.algorithms import LogisticBlobsTask, SampledAsyncFedAvg, SampledSAPS
from repro.network.transport import SimulatedNetwork
from repro.sim import ConstantCompute, EventEngine, RenewalPopulation


def _report_memory(algorithm, clients: int, dense_bytes: int) -> int:
    stats = algorithm.arena.stats()
    resident = algorithm.arena.resident_bytes()
    print(f"arena stats (cumulative, whole run): {stats}")
    print(f"pin telemetry       : peak {stats['peak_pins']} simultaneous "
          f"pins, {stats['pin_contentions']} pinned-victim skips "
          f"(both whole-run totals)")
    print(f"resident arena bytes: {resident:,} "
          f"({resident / clients:.4f} bytes/enrolled client; dense "
          f"would be {dense_bytes / clients:.0f})")
    return resident


def run_fedavg(args, task, dense_bytes: int) -> int:
    algorithm = SampledAsyncFedAvg(
        task,
        num_clients=args.clients,
        sample_size=args.sample,
        capacity=args.capacity,
        local_steps=args.local_steps,
        lr=0.1,
        seed=args.seed,
    )
    population = RenewalPopulation(
        args.clients, mean_up=60.0, mean_down=30.0, seed=args.seed
    )
    network = SimulatedNetwork(args.clients, server_bandwidth=100.0)
    engine = EventEngine(
        network,
        compute_model=ConstantCompute(args.compute_time),
        population=population,
    )

    print(f"arena capacity      : {algorithm.arena.capacity} rows "
          f"(dense equivalent: {dense_bytes / 1e9:.2f} GB)")

    wall_start = time.perf_counter()
    result = engine.run(
        algorithm,
        validation=task,
        duration=args.sim_time,
        checkpoint_every=args.sim_time / 4,
    )
    wall = time.perf_counter() - wall_start

    print()
    print(f"simulated seconds   : {args.sim_time}")
    print(f"wall seconds        : {wall:.2f}")
    print(f"events processed    : {result.events_processed:,} "
          f"({result.events_processed / wall:,.0f} events/s)")
    print(f"server updates      : {algorithm.server_version:,} "
          f"(mean staleness {np.mean(algorithm.staleness_log):.1f})")
    print(f"clients touched     : {population.touched_clients:,}")
    resident = _report_memory(algorithm, args.clients, dense_bytes)
    print()
    print("trajectory (simulated time -> validation accuracy):")
    for record in result.history:
        print(f"  t={record.time_s:7.1f}s  acc={record.val_accuracy:6.1%}  "
              f"loss={record.val_loss:.3f}  staleness={record.mean_staleness:.1f}")
    final = result.history[-1]
    initial = result.history[0]
    assert final.val_accuracy > initial.val_accuracy, (
        "the sampled run should learn"
    )
    # Resident bytes are a function of capacity, not enrolment, so the
    # ratio to the dense arena improves with n (1000x at a million).
    assert resident < dense_bytes / 10, "resident memory must stay sharded"
    print("\nOK: memory stayed proportional to the active set while the "
          "global model learned.")
    return 0


def run_gossip(args, task, dense_bytes: int) -> int:
    population = RenewalPopulation(
        args.clients, mean_up=60.0, mean_down=30.0, seed=args.seed
    )
    algorithm = SampledSAPS(
        task,
        num_clients=args.clients,
        sample_size=args.sample,
        capacity=args.capacity,
        local_steps=args.local_steps,
        lr=0.1,
        population=population,
        round_duration=args.round_duration,
        seed=args.seed,
    )
    rounds = max(1, int(args.sim_time / args.round_duration))
    print(f"arena capacity      : {algorithm.arena.capacity} rows "
          f"(dense equivalent: {dense_bytes / 1e9:.2f} GB)")
    print(f"gossip rounds       : {rounds}")

    wall_start = time.perf_counter()
    history = []
    eval_every = max(1, rounds // 4)
    algorithm.arena.stats_delta()  # baseline: intervals report deltas, not run totals
    for round_index in range(rounds):
        loss = algorithm.run_round(round_index)
        if round_index % eval_every == eval_every - 1 or round_index == rounds - 1:
            val_loss, val_acc = algorithm.evaluate()
            history.append(
                (round_index, loss, val_loss, val_acc,
                 algorithm.arena.stats_delta())
            )
    wall = time.perf_counter() - wall_start

    print()
    print(f"wall seconds        : {wall:.2f} "
          f"({rounds / wall:.1f} rounds/s)")
    print(f"pairwise exchanges  : {algorithm.exchange_count:,} "
          f"({algorithm.exchanged_bytes / 1e6:.2f} MB masked traffic)")
    print(f"clients touched     : {population.touched_clients:,}")
    resident = _report_memory(algorithm, args.clients, dense_bytes)
    print()
    print("trajectory (round -> streamed-consensus validation accuracy; "
          "arena flow counters are per-interval deltas):")
    for round_index, loss, val_loss, val_acc, delta in history:
        print(f"  round {round_index:4d}  acc={val_acc:6.1%}  "
              f"val_loss={val_loss:.3f}  train_loss={loss:.3f}")
        print(f"    arena Δ: +{delta['misses']} loads, "
              f"{delta['evictions']} evictions "
              f"({delta['writebacks']} writebacks, "
              f"{delta['writeback_bytes']:,} B written back), "
              f"{delta['hits']} hits, "
              f"{delta['pin_contentions']} pin contentions")
    _, first_acc = task.evaluate(np.zeros(task.model_size))
    assert history[-1][3] > first_acc, "the sampled gossip run should learn"
    # Unlike the store-free fedavg family, gossip keeps a writeback row
    # per *touched* client (peer state must survive eviction), so the
    # footprint scales with rounds x sample — still independent of
    # enrolment, but the dense ratio at the CI-sized 50k run is looser.
    assert resident < dense_bytes / 4, "resident memory must stay sharded"
    print("\nOK: memory stayed proportional to the active set while the "
          "streamed consensus model learned.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Million-enrolled-client sampled federated learning"
    )
    parser.add_argument("--family", choices=["fedavg", "gossip"],
                        default="fedavg",
                        help="server-centric FedAsync pool or "
                        "sampled-neighborhood SAPS gossip")
    parser.add_argument("--clients", type=int, default=1_000_000,
                        help="enrolled population size")
    parser.add_argument("--sample", type=int, default=512,
                        help="in-flight seats / sampled neighborhood size")
    parser.add_argument("--capacity", type=int, default=None,
                        help="resident arena rows (default: 2*sample+16)")
    parser.add_argument("--sim-time", type=float, default=40.0,
                        help="simulated seconds to run")
    parser.add_argument("--local-steps", type=int, default=2)
    parser.add_argument("--compute-time", type=float, default=0.5,
                        help="simulated seconds per local step (fedavg)")
    parser.add_argument("--round-duration", type=float, default=1.0,
                        help="simulated seconds per gossip round (gossip)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    task = LogisticBlobsTask(num_features=32, num_classes=10, seed=args.seed)
    dense_bytes = 2 * args.clients * task.model_size * 8
    print(f"family              : {args.family}")
    print(f"enrolled clients    : {args.clients:,}")
    print(f"participant sample  : {args.sample}")
    if args.family == "gossip":
        return run_gossip(args, task, dense_bytes)
    return run_fedavg(args, task, dense_bytes)


if __name__ == "__main__":
    raise SystemExit(main())
