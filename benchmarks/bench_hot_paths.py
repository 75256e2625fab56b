"""The six timing questions a whole single-thread run cannot answer.

``benchmarks/e2e`` owns whole-run timing (wall-clock, memory, traffic and
time to target, per layer) on five untraced single-thread workloads.
What such a run cannot see is timed here, each by one scenario function,
and held by the :data:`GATES` table below:

* ``threads_scaling`` — the batched local-step pass at 1/2/4 worker
  threads on the n = 1024 MLP (4 independent cluster blocks): results
  are bit-identical at any thread count, only wall-clock changes;
* ``obs_overhead`` — telemetry cost on the n = 1024 D-PSGD round: the
  disabled path analytically (null-span cost × spans per round), the
  enabled path (registry + Chrome trace) against the off arm;
* ``event_throughput`` — calendar queue vs binary heap on the sampling
  storm (500k standing renewal events + 512-event round bursts; Brown,
  1988) — the engine only ever runs the calendar, so no whole run shows
  what the heap would have cost.  The heap arm is the tests' pop-order
  oracle, ``tests/reference/events.py`` (run from the repo root);
* ``fault_round`` — an async-gossip run with no fault plan vs an *empty*
  :class:`repro.sim.FaultPlan`: the empty plan must schedule nothing
  and cost nothing;
* ``peer_selection`` — the spread of one ``AdaptivePeerSelector.select``
  at n = 1024 over seeds and rounds: a whole run reports a total, and a
  fallback round that costs 100× the median (the third one did, before
  PR 21) hides inside it;
  it also reads the most one weighted ``select`` allocates at once, the
  transient that sets ``saps1024_mlp``'s peak RSS;
* ``substream_seeding`` — the per-seed cost of positioning a generator
  at a seed's stream through :class:`repro.utils.rng.Substreams` against
  one ``default_rng`` per seed, with K = 1 and K = 512 seeds per pass:
  ``sampled_saps100k`` runs mostly wide passes, and the one-key calls
  (an async participant's batch, a lone availability query) must not
  pay for them.

The A/Bs (the middle three and the last) share one primitive, :func:`_paired_ratio`:
order-balanced pairs, judged by the median of per-pair ratios.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_hot_paths [--quick]

Writes the readings to ``BENCH_hot_paths.json`` (untracked: a file every
run overwrites from a different machine is not a history), checks every
row of :data:`GATES` against them, lists each breached row and exits
non-zero if there is one.  ``--quick`` takes fewer repeats and A/B pairs
(< 70 s on two cores).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import operator
import os
import sys
import time
import tracemalloc
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.algorithms.asynchronous import AsyncGossip
from repro.algorithms.decentralized import DPSGD
from repro.core.gossip import AdaptivePeerSelector
from repro.data import make_blobs, partition_iid
from repro.network.bandwidth import random_uniform_bandwidth
from repro.network.transport import SimulatedNetwork
from repro.nn import MLP
from repro.sim import (
    ClusterTrainer,
    ConstantCompute,
    ExperimentConfig,
    make_workers,
    run_event_experiment,
)
from repro.sim.calendar import CalendarQueue
from repro.sim.faults import FaultPlan
from repro.utils import parallel
from repro.utils.rng import Substreams, derive_seed, pcg64_states
from tests.reference.events import EventQueue

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hot_paths.json"

COMPARATORS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

#: Every gate, one row each: (section, field, comparator, floor as a
#: function of the machine's ``cpu_count``).  A reading that does not
#: satisfy ``reading <comparator> floor`` — or is missing — fails the run.
GATES = [
    # Real scaling where the cores exist; on smaller boxes the pool only
    # adds dispatch, so the floor is "threading must not wreck serial".
    ("threads_scaling", "speedup_4", ">=", lambda cpus: 1.8 if cpus >= 4 else 0.5),
    ("obs_overhead", "overhead_disabled", "<=", lambda cpus: 0.02),
    ("obs_overhead", "overhead_enabled", "<=", lambda cpus: 0.10),
    # "About twice the heap": 2.08-2.09x on this 2-core box when it is
    # quiet, up to 2.65x when neighbours thrash the cache the heap arm
    # lives in — a 2.0 floor sat on the quiet reading itself.
    ("event_throughput", "speedup", ">=", lambda cpus: 1.8),
    # An empty FaultPlan is contractually inert.
    ("fault_round", "extra_events", "==", lambda cpus: 0),
    ("fault_round", "overhead", "<=", lambda cpus: 0.05),
    # A ratio, so it travels between machines: no round of Algorithm 3 —
    # fallback and connectivity-gap-expiry rounds included — may cost 10×
    # the median round (read ≈ 90 for the default matcher before PR 21).
    # The weighted matcher's fallback completion is closed-form, not the
    # blossom, so its expiry rounds stay within 5× (read 1.8–2.8; 4.3–6.3
    # with the blossom).
    ("peer_selection", "worst_over_median_default", "<=", lambda cpus: 10),
    ("peer_selection", "worst_over_median_weighted", "<=", lambda cpus: 5),
    # Bytes, so machine-independent: one weighted round at n = 1024 holds
    # no dense float copy of its graph (≈ 31 MiB when it multiplied B by
    # its graph every round, 18 since it reads B along the edge list, 8.7
    # since it reads B's links from lists built at construction, 4.7 since
    # a round without weight ties skips its tie keys).
    ("peer_selection", "peak_mib_weighted", "<=", lambda cpus: 6),
    # Ratios against numpy's own seeding on the same box: a wide pass
    # pays off, and a one-key call costs about what default_rng does.
    ("substream_seeding", "speedup_512", ">=", lambda cpus: 3),
    ("substream_seeding", "cost_ratio_1", "<=", lambda cpus: 1.15),
]


def check_gates(report: dict) -> List[Tuple[bool, str]]:
    """``(holds, message)`` for every :data:`GATES` row, in table order;
    a reading the report does not have does not hold."""
    cpus = report.get("cpu_count") or 1
    rows = []
    for section, field, comparator, floor in GATES:
        limit = floor(cpus)
        reading = report.get(section, {}).get(field)
        holds = reading is not None and COMPARATORS[comparator](reading, limit)
        shown = "missing" if reading is None else f"{reading:.4g}"
        rows.append((
            holds,
            f"{section}.{field} = {shown} {'holds' if holds else 'BREACHES'} "
            f"{comparator} {limit} (cpu_count={cpus})",
        ))
    return rows


#: Workload shape: a ~7.2k-parameter MLP; at n = 1024 it partitions into
#: 4 cluster blocks of ≤290 rows under the 16 MB block budget — enough
#: independent blocks for a 4-thread pool to show its scaling.
NUM_FEATURES = 64
HIDDEN = [96]
NUM_CLASSES = 10
CLUSTER_WORKERS = 1024
EVENT_WORKERS = 32


def _model_factory():
    return MLP(NUM_FEATURES, HIDDEN, NUM_CLASSES, rng=0)


def _workload(num_workers: int):
    full = make_blobs(
        num_samples=24 * num_workers,
        num_classes=NUM_CLASSES,
        num_features=NUM_FEATURES,
        rng=0,
    )
    return partition_iid(full, num_workers, rng=0)


def _time(fn, repeats: int) -> float:
    """Median-of-repeats wall time of ``fn()`` with the GC parked: one
    slow outlier cannot poison it, and unlike best-of it does not
    undersell paths whose cost includes genuine allocation jitter."""
    samples = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return float(np.median(samples))


def _paired_ratio(base, treated, pairs: int) -> dict:
    """Order-balanced A/B of two timed arms (each returns seconds).

    The verdict is ``ratio``, the **median of per-pair** ``treated /
    base`` — not the ratio of per-arm medians: this box runs 10–25 %
    slower for minutes at a time, which moves both runs of a pair
    together but lands on the two arm medians unevenly.  Whichever arm
    runs second in a pair inherits warmer caches, so the order
    alternates.  ``ratio_quartiles`` is the reading's own spread."""
    base_s, treated_s = [], []
    for pair in range(pairs):
        if pair % 2 == 0:
            base_s.append(base())
            treated_s.append(treated())
        else:
            treated_s.append(treated())
            base_s.append(base())
    ratios = [t / b for b, t in zip(base_s, treated_s)]
    return {
        "pairs": pairs,
        "base_seconds": float(np.median(base_s)),
        "treated_seconds": float(np.median(treated_s)),
        "ratio": float(np.median(ratios)),
        "ratio_quartiles": np.percentile(ratios, [25, 75]).tolist(),
    }


def bench_threads_scaling(repeats: int, local_steps: int = 2) -> dict:
    """The same :meth:`ClusterTrainer.batched_steps` pass under 1, 2 and
    4 threads — the block partition is fixed, so every configuration
    runs identical kernels; only concurrency changes."""
    config = ExperimentConfig(rounds=1, batch_size=4, lr=0.05, seed=7)
    workers = make_workers(_model_factory, _workload(CLUSTER_WORKERS), config)
    trainer = ClusterTrainer.build(workers)
    assert trainer is not None
    results = {
        "num_workers": CLUSTER_WORKERS,
        "local_steps": local_steps,
        "num_blocks": len(
            parallel.block_ranges(CLUSTER_WORKERS, trainer._block_rows())
        ),
    }
    try:
        for threads in (1, 2, 4):
            parallel.set_num_threads(threads)
            trainer.batched_steps(local_steps)  # warm-up (builds contexts)
            results[f"seconds_{threads}"] = _time(
                lambda: trainer.batched_steps(local_steps), repeats
            )
    finally:
        parallel.set_num_threads(None)
    results["speedup_2"] = results["seconds_1"] / results["seconds_2"]
    results["speedup_4"] = results["seconds_1"] / results["seconds_4"]
    return results


def bench_obs_overhead(pairs: int) -> dict:
    """Telemetry cost on the fused D-PSGD round, disabled and enabled.

    The disabled bound is analytic rather than differential: a round has
    a handful of ``obs.phase()`` entries whose null-recorder cost is a
    couple hundred nanoseconds each — far below the run-to-run jitter of
    a ~10 ms round, so an off-vs-off A/B would measure noise.  Instead
    the section times the null span directly, counts the spans one
    instrumented round opens, and reports their product over the round's
    wall time.  The *enabled* overhead is a real A/B: off-arm vs
    trace-arm (registry + Chrome trace), see :func:`_paired_ratio`.
    """
    config = ExperimentConfig(rounds=1, batch_size=2, lr=0.05, seed=7)
    workers = make_workers(_model_factory, _workload(CLUSTER_WORKERS), config)
    algorithm = DPSGD()
    algorithm.setup(workers, SimulatedNetwork(CLUSTER_WORKERS), rng=7)
    rounds = itertools.count()

    # (a) the disabled span's unit cost: enter+exit of the shared no-op.
    null_calls = 200_000
    with obs.phase("warm"):  # touch the code path once
        pass
    start = time.perf_counter()
    for _ in range(null_calls):
        with obs.phase("bench"):
            pass
    null_span_s = (time.perf_counter() - start) / null_calls

    # (b) spans per round, counted by one metrics-recorded round.
    previous = obs.install(None)
    try:
        obs.start("metrics")
        algorithm.run_round(next(rounds))
        counters = obs.metrics().snapshot()["counters"]
    finally:
        obs.install(previous)
    phase_calls = int(sum(
        value for name, value in counters.items()
        if name.startswith("phase.") and name.endswith(".count")
    ))

    # (c) off vs trace arms.
    def timed_off():
        gc.collect()
        start = time.perf_counter()
        algorithm.run_round(next(rounds))
        return time.perf_counter() - start

    def timed_trace():
        previous = obs.install(None)
        try:
            obs.start("trace")
            return timed_off()
        finally:
            obs.install(previous)

    timed_off()  # warm-up
    row = _paired_ratio(timed_off, timed_trace, pairs)
    return {
        "num_workers": CLUSTER_WORKERS,
        "phase_calls_per_round": phase_calls,
        "null_span_ns": null_span_s * 1e9,
        "overhead_disabled": phase_calls * null_span_s / row["base_seconds"],
        "overhead_enabled": row["ratio"] - 1.0,
        **row,
    }


#: The sampling-storm shape: a standing population of self-rescheduling
#: far-future events (client up/down renewals) plus near-now bursts (one
#: round's sampled participants).  The heap pays O(log population) per op
#: against the whole standing set; the calendar pays O(1) amortized
#: because only the current bucket is ever sorted.
STORM_POPULATION = 500_000
STORM_ROUNDS = 100
STORM_BURST = 512
STORM_HORIZON = 200.0


def _storm(queue_factory):
    """A seeded storm: ``run(rounds)`` plays its next ``rounds`` rounds
    and returns the loop's seconds; ``run.ops`` counts the pushes and
    pops so far.

    Seeding the standing population is setup, not workload — the engine
    pays it once at enrolment while the storm repeats every round — so
    it stays outside the timed region.  Renewal deltas are pre-drawn for
    the same reason: the RNG cost is identical in both arms and would
    only dilute the scheduler difference.  Every storm draws its own
    (identical) schedule: like the engine's, its time objects are fresh.
    """
    rng = np.random.default_rng(42)
    step = STORM_HORIZON / STORM_ROUNDS / 4
    queue = queue_factory()
    seed_times = rng.uniform(0.0, STORM_HORIZON, size=STORM_POPULATION)
    queue.push_many([(float(t), None) for t in seed_times])
    bursts = iter([
        [(float(t), "burst") for t in now + rng.uniform(0.0, 0.5, size=STORM_BURST)]
        for now in (step * (r + 1) for r in range(STORM_ROUNDS))
    ])
    renewals = iter(rng.uniform(100.0, 200.0, size=2 * STORM_POPULATION).tolist())
    state = {"now": 0.0}

    def run(rounds: int) -> float:
        ops, now = 0, state["now"]
        start = time.perf_counter()
        for burst in itertools.islice(bursts, rounds):
            now += step
            queue.push_many(burst)
            ops += STORM_BURST
            while queue and queue.peek_time() <= now:
                time_s, action = queue.pop()
                ops += 1
                if action is None:  # standing population event: renew
                    queue.push(time_s + next(renewals), None)
                    ops += 1
        seconds = time.perf_counter() - start
        state["now"] = now
        run.ops += ops
        return seconds

    run.ops = 0
    return run


def bench_event_throughput(pairs: int) -> dict:
    """Calendar queue vs binary heap on the identical deterministic
    storm; events/s counts pushes + pops performed.

    Seeding a storm takes about three times as long as playing it, so
    both storms are seeded once and played in ``pairs`` order-balanced
    segments of ``STORM_ROUNDS / pairs`` rounds: each pair times the
    same rounds on both queues, close together in time."""
    storms = {"calendar": _storm(CalendarQueue), "heap": _storm(EventQueue)}
    seconds = {"calendar": 0.0, "heap": 0.0}
    bounds = np.linspace(0, STORM_ROUNDS, pairs + 1).round().astype(int)
    segments = {label: iter(np.diff(bounds).tolist()) for label in storms}

    def arm(label):
        def timed():
            elapsed = storms[label](next(segments[label]))
            seconds[label] += elapsed
            return elapsed
        return timed

    gc.collect()
    gc.disable()
    try:
        row = _paired_ratio(arm("calendar"), arm("heap"), pairs)
    finally:
        gc.enable()
    ops = {label: storm.ops for label, storm in storms.items()}
    return {
        "population": STORM_POPULATION,
        "rounds": STORM_ROUNDS,
        "burst": STORM_BURST,
        "heap_ops": ops["heap"],
        "calendar_ops": ops["calendar"],
        "heap_events_per_second": ops["heap"] / seconds["heap"],
        "calendar_events_per_second": ops["calendar"] / seconds["calendar"],
        "speedup": row["ratio"],
        **row,
    }


def bench_fault_round(pairs: int) -> dict:
    """Wall-clock cost of an inert (empty) fault plan on an event run:
    same event count, and no measurable overhead."""
    partitions = _workload(EVENT_WORKERS)
    config = ExperimentConfig(rounds=1, batch_size=4, lr=0.05, seed=7)
    bandwidth = random_uniform_bandwidth(EVENT_WORKERS, rng=7)
    events = {}

    def arm(label, plan):
        def run_once():
            network = SimulatedNetwork(EVENT_WORKERS, bandwidth=bandwidth)
            algorithm = AsyncGossip(compression_ratio=20.0, base_seed=7)
            gc.collect()
            start = time.perf_counter()
            result = run_event_experiment(
                algorithm, partitions, partitions[0], _model_factory, config,
                network, compute_model=ConstantCompute(0.01), duration=0.25,
                checkpoint_every=0.125, fault_plan=plan,
            )
            events[label] = result.events_processed
            return time.perf_counter() - start
        return run_once

    no_plan = arm("no_plan", None)
    no_plan()  # warm-up
    row = _paired_ratio(
        no_plan, arm("empty_plan", FaultPlan(EVENT_WORKERS)), pairs
    )
    return {
        "num_workers": EVENT_WORKERS,
        "events_no_plan": events["no_plan"],
        "extra_events": events["empty_plan"] - events["no_plan"],
        "overhead": row["ratio"] - 1.0,
        **row,
    }


def bench_peer_selection(rounds: int) -> dict:
    """Wall-clock of every ``select`` over uniform [1, 5] links, seeds
    0–2 × ``rounds`` rounds pooled, per matcher: 30 rounds cover the three
    start-up fallback rounds and the first expiry of the default
    ``T_thres`` = 20."""
    results = {"num_workers": CLUSTER_WORKERS, "seeds": 3, "rounds": rounds}
    for label, prefer_weighted in (("default", False), ("weighted", True)):
        seconds, fallback = [], []
        for seed in range(3):
            selector = AdaptivePeerSelector(
                random_uniform_bandwidth(CLUSTER_WORKERS, low=1.0, rng=seed),
                rng=seed, prefer_weighted=prefer_weighted,
            )
            for round_index in range(rounds):
                start = time.perf_counter()
                fallback.append(selector.select(round_index).used_fallback)
                seconds.append(time.perf_counter() - start)
        median, worst = float(np.median(seconds)), max(seconds)
        results[f"median_seconds_{label}"] = median
        results[f"max_seconds_{label}"] = worst
        results[f"worst_over_median_{label}"] = worst / median
        # The gate's ratio, attributed: connected (B*) against fallback rounds.
        for kind, wanted in (("connected", False), ("fallback", True)):
            picked = [t for t, used in zip(seconds, fallback) if used == wanted]
            results[f"median_seconds_{label}_{kind}"] = float(np.median(picked))
    # The same weighted rounds once more, untimed: tracing slows every
    # allocation.  A round's peak is counted above what was live before it.
    peak = 0
    for seed in range(3):
        selector = AdaptivePeerSelector(
            random_uniform_bandwidth(CLUSTER_WORKERS, low=1.0, rng=seed),
            rng=seed, prefer_weighted=True,
        )
        tracemalloc.start()
        try:
            for round_index in range(rounds):
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                selector.select(round_index)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - live)
        finally:
            tracemalloc.stop()
    results["peak_mib_weighted"] = peak / 2**20
    return results


#: Seeds each seeding arm positions a generator at, and the seeds per pass.
SEED_COUNT = 2048
SEED_BATCHES = (1, 512)


def bench_substream_seeding(pairs: int) -> dict:
    """Per-seed wall time of reaching a seed's stream: ``default_rng(seed)``
    against :func:`~repro.utils.rng.pcg64_states` over K seeds at a time
    plus one :meth:`Substreams.at` per seed, order-balanced, for each K.
    The seeds are ``derive_seed`` keys'; hashing a key to its seed is
    the same sha256 on both sides, so the arms start from the seeds."""
    seeds = [derive_seed(0, "client", client, 7) for client in range(SEED_COUNT)]
    streams = Substreams(0, "client")

    def timed(body):
        def run():
            gc.disable()
            try:
                start = time.perf_counter()
                body()
                return time.perf_counter() - start
            finally:
                gc.enable()
        return run

    @timed
    def fresh():
        for seed in seeds:
            np.random.default_rng(seed)

    results = {"seeds": SEED_COUNT}
    for batch in SEED_BATCHES:
        @timed
        def repointed():
            for first in range(0, SEED_COUNT, batch):
                for state in pcg64_states(seeds[first:first + batch]):
                    streams.at(state)

        row = _paired_ratio(fresh, repointed, pairs)
        results[f"default_rng_seconds_per_seed_{batch}"] = row["base_seconds"] / SEED_COUNT
        results[f"repointed_seconds_per_seed_{batch}"] = row["treated_seconds"] / SEED_COUNT
        results[f"cost_ratio_{batch}"] = row["ratio"]
        results[f"cost_ratio_quartiles_{batch}"] = row["ratio_quartiles"]
    results["speedup_512"] = 1.0 / results["cost_ratio_512"]
    return results


def run_suite(repeats: int) -> dict:
    # Pairs go where the gate is tightest against the box's noise:
    # fault_round's 5 % needs the most.  The storm's pairs split one
    # seeded storm per arm, so more of them cost no more set-up.
    scenarios = (
        ("threads_scaling", bench_threads_scaling, max(repeats - 2, 3)),
        ("obs_overhead", bench_obs_overhead, 2 * repeats),
        ("event_throughput", bench_event_throughput, 2 * repeats),
        ("fault_round", bench_fault_round, 8 * repeats),
        ("peer_selection", bench_peer_selection, 30),
        ("substream_seeding", bench_substream_seeding, 4 * repeats),
    )
    report = {"cpu_count": os.cpu_count()}
    for name, scenario, count in scenarios:
        print(f"{name} ...", flush=True)
        report[name] = scenario(count)
        print(json.dumps(report[name]))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats and A/B pairs; finishes well under 60 s",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per scenario (default 5 with --quick, else 9)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    report = run_suite(args.repeats or (5 if args.quick else 9))
    report["quick"] = args.quick
    report["bench_wall_seconds"] = round(time.perf_counter() - started, 2)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output} in {report['bench_wall_seconds']:.1f}s")
    gates = check_gates(report)
    for holds, message in gates:
        print(f"gate: {message}", file=sys.stdout if holds else sys.stderr)
    return 0 if all(holds for holds, _ in gates) else 1


if __name__ == "__main__":
    raise SystemExit(main())
