"""Hot-path micro-benchmarks of the kernels under a communication round.

Each section times one hot path against a baseline that ships (a second
dtype, the per-row compressors, the per-worker compute loop, the heap
scheduler); whole-run numbers live in ``benchmarks/e2e``:

* ``dtype_round`` — one full SAPS-PSGD round at float64 vs float32,
  with resident replica-matrix bytes — the memory-traffic half of the
  float32 story;
* ``compression_batch`` — per-round ``compress_matrix`` over the
  ``(n, N)`` replica matrix vs the per-worker ``compress`` loop, for the
  shared-mask and top-k sparsifiers;
* ``local_step_batch`` — the :class:`repro.sim.ClusterTrainer` batched
  local-SGD step (one stacked forward/backward/update for the whole
  cluster) vs the per-worker ``local_step`` loop;
* ``conv_step_batch`` — the same comparison on the conv path (the
  TinyCNN preset stand-in: Conv/pool/Linear over synthetic images),
  exercising the batched im2col + stacked-GEMM conv kernels;
* ``event_round`` — the discrete-event engine's hot paths: raw
  :class:`repro.sim.EventQueue` push/pop throughput (pure bookkeeping —
  the floor every async schedule pays per event) and the end-to-end
  async-gossip step rate on the standard MLP workload;
* ``fault_round`` — the same async-gossip run with no fault plan vs an
  **empty** :class:`repro.sim.FaultPlan`: the empty plan must be inert
  (identical event count) and add ≤5% wall-clock overhead — the
  zero-overhead contract of the fault machinery, gated in CI;
* ``threads_scaling`` — the batched local-step pass at 1/2/4 worker
  threads (``repro.utils.parallel``) on the n = 1024 round-bench MLP
  (4 independent cluster blocks): results are bit-identical at any
  thread count, only wall-clock changes.  Records ``cpu_count`` — the
  CI gate requires ≥1.8× at 4 threads on ≥4-core boxes and only "no
  serial regression" on smaller ones;
* ``obs_overhead`` — the telemetry contract on the n = 1024 D-PSGD
  round: the disabled path (null recorder) costs ≤2% — computed
  analytically from the measured null-span cost times the spans one
  round opens — and the fully enabled path (metrics registry + Chrome
  trace) ≤10% against an interleaved off-arm, both gated in CI;
* ``event_throughput`` — the sampling-storm scheduler duel: a 500k
  standing population of self-rescheduling renewal events plus 512-event
  per-round bursts, run identically through the heap-backed
  :class:`repro.sim.EventQueue` and the bucketed
  :class:`repro.sim.CalendarQueue`; the CI gate requires the calendar to
  clear ≥2× the heap's events/s;
* ``sharded_memory`` — resident bytes per enrolled client of a
  :class:`repro.nn.ShardedArena` at 100k enrolment under the sampled
  access pattern, gated below the dense ``2 * N * itemsize`` line;
* ``gossip_sampled`` — a full sampled-neighborhood SAPS round
  (:class:`repro.algorithms.SampledSAPS`) at 100k enrolled / 512
  sampled: local SGD, in-sample max-weight matching and the shared-mask
  exchange on pinned sharded rows; reports seconds/round and resident
  bytes per enrolled client, gated below the dense line.

Every timed section reports **median-of-repeats** (see :func:`_time`);
sections whose unit cost is too small to time alone sample bursts and
take the median of per-burst means.

The dtype and batched-compression sections always run at n ∈ {32, 128}
(they are cheap and those are the tracked scale points); the batched
local-step section always runs at n ∈ {32, 128, 1024} — 1024 is the
acceptance scale point — and the batched conv-step section at
n ∈ {32, 128}; CI fails if either batched path ever drops below 1× the
loop.

Results (seconds per op, and speedups) are written to
``BENCH_hot_paths.json`` at the repo root so the perf trajectory is
tracked across PRs.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_hot_paths [--quick]

``--quick`` uses fewer rounds per timed burst (finishes well under
60 s).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.asynchronous import AsyncGossip
from repro.algorithms.decentralized import DPSGD
from repro.algorithms.saps_psgd import SAPSPSGD
from repro.compression import RandomMaskCompressor, TopKCompressor
from repro.data import make_blobs, make_synthetic_images, partition_iid
from repro.network.bandwidth import random_uniform_bandwidth
from repro.network.transport import SimulatedNetwork
from repro.nn import MLP, TinyCNN
from repro.sim import (
    ClusterTrainer,
    ConstantCompute,
    EventQueue,
    ExperimentConfig,
    make_workers,
    run_event_experiment,
)
from repro.sim.faults import FaultPlan

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hot_paths.json"

#: Workload shape: a ~7.2k-parameter MLP.  Empirically the sweet spot
#: for isolating what the arena removes: large enough that flat
#: round-trips are real memory traffic, small enough that the (shared,
#: path-independent) local-SGD compute does not drown the exchange hot
#: path under test.
NUM_FEATURES = 64
HIDDEN = [96]
NUM_CLASSES = 10


def _model_factory(seed: int = 0):
    return lambda: MLP(NUM_FEATURES, HIDDEN, NUM_CLASSES, rng=seed)


def _workload(num_workers: int, seed: int = 0):
    samples = 24 * num_workers
    full = make_blobs(
        num_samples=samples,
        num_classes=NUM_CLASSES,
        num_features=NUM_FEATURES,
        rng=seed,
    )
    return partition_iid(full, num_workers, rng=seed)


def _time(fn, repeats: int) -> float:
    """Median-of-repeats wall time of ``fn()``.

    The median is the suite's one noise policy (ratios of best-of
    samples proved unstable on shared CI boxes — the fault_round section
    once reported a −9% "overhead" purely from scheduling jitter): a
    single slow outlier cannot poison it, and unlike best-of it does not
    systematically undersell paths whose cost includes genuine
    allocation jitter.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def bench_dtype_round(num_workers: int, rounds: int, repeats: int) -> dict:
    """SAPS round at float64 vs float32, both on the arena fast path.

    Also records the resident replica-matrix footprint (data + grads) per
    dtype — the memory-traffic halving is the point of float32, the
    wall-clock speedup is workload-dependent gravy.
    """
    partitions = _workload(num_workers)
    results = {}
    for label in ("float64", "float32"):
        config = ExperimentConfig(
            rounds=rounds, batch_size=2, lr=0.05, seed=7, dtype=label
        )
        workers = make_workers(_model_factory(), partitions, config)
        algorithm = SAPSPSGD(
            compression_ratio=20.0, selector="ring", base_seed=7
        )
        network = SimulatedNetwork(num_workers=num_workers)
        algorithm.setup(workers, network, rng=7)
        algorithm.run_round(0)  # warm-up

        arena = algorithm.arena
        results[f"{label}_arena_bytes"] = arena.data.nbytes + arena.grads.nbytes
        round_index = 1
        samples = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(rounds):
                    algorithm.run_round(round_index)
                    round_index += 1
                samples.append((time.perf_counter() - start) / rounds)
        finally:
            gc.enable()
        results[label] = float(np.median(samples))
    results["speedup"] = results["float64"] / results["float32"]
    results["memory_reduction"] = (
        results["float64_arena_bytes"] / results["float32_arena_bytes"]
    )
    return results


def bench_compression_batch(num_workers: int, repeats: int) -> dict:
    """Per-round compress_matrix vs the per-worker compress loop.

    Times compression of one (n, N) replica matrix — the exact shape the
    SAPS/TopK arena fast paths feed it — for the paper's shared-mask
    scheme and the top-k baseline.  The top-k matrix path selects via
    row-blocked axis-1 ``argpartition`` (one kernel dispatch per
    :data:`repro.compression.topk.TOPK_BLOCK_ROWS` rows, blocks run on
    the configured thread pool); its speedup over the per-row loop is
    gated in ``run_all.sh`` — ≥2× on multi-core boxes, where the blocks
    actually run concurrently.
    """
    model_size = _model_factory()().num_parameters()
    matrix = np.random.default_rng(7).normal(size=(num_workers, model_size))
    results = {}

    mask = RandomMaskCompressor(20.0)
    mask.set_seed(7)
    topk = TopKCompressor(20.0)
    for name, compressor in (("shared_mask", mask), ("topk", topk)):
        def per_row():
            for row in matrix:
                compressor.compress(row)

        def batched():
            compressor.compress_matrix(matrix)

        per_row()  # warm-up
        batched()
        row = {
            "per_row": _time(per_row, repeats),
            "batched": _time(batched, repeats),
        }
        row["speedup"] = row["per_row"] / row["batched"]
        results[name] = row
    return results


#: Workload of the batched local-step section: the CLI's standard MLP
#: experiment shape (``repro.cli._build_workload``: 32 features, one
#: hidden layer of 32, 10 classes — N = 1386).  At n = 1024 the whole
#: replica matrix (~11 MB) stays cache-resident, so the section
#: isolates the per-worker Python dispatch the batched engine removes.
#: On the larger round-bench MLP (N = 7210) the same comparison is
#: DRAM-bandwidth-bound and lands at 2-3×; that regime is what the
#: ``saps_round``/``psgd_round`` sections exercise.
LOCAL_STEP_FEATURES = 32
LOCAL_STEP_HIDDEN = [32]


def _time_loop_vs_batched(
    partitions, factory, local_steps: int, repeats: int
) -> dict:
    """Shared timing scaffold of the batched-step sections.

    Builds two independent, identically-seeded worker sets (so neither
    perturbs the other), times ``local_steps`` local SGD steps as the
    per-worker loop vs one :class:`ClusterTrainer` batched pass, and
    reports median seconds per pass (:func:`_time`) — the loop's
    n·k·layers small allocations make its cost jittery, and the median
    keeps that genuine jitter without letting one scheduler outlier
    define the sample.
    """
    config = ExperimentConfig(rounds=1, batch_size=4, lr=0.05, seed=7)
    loop_workers = make_workers(factory, partitions, config)
    batched_workers = make_workers(factory, partitions, config)
    trainer = ClusterTrainer.build(batched_workers)
    assert trainer is not None, "workload must support the batched path"

    vectorized_workers = make_workers(factory, partitions, config)
    vectorized_trainer = ClusterTrainer.build(
        vectorized_workers, sampler="vectorized", sampler_seed=7
    )
    assert vectorized_trainer is not None

    def loop():
        for worker in loop_workers:
            for _ in range(local_steps):
                worker.local_step()

    def batched():
        trainer.batched_steps(local_steps)

    def vectorized():
        vectorized_trainer.batched_steps(local_steps)

    loop()  # warm-up
    batched()
    vectorized()
    results = {"local_steps": local_steps}
    for label, fn in (
        ("loop", loop), ("batched", batched), ("vectorized", vectorized)
    ):
        gc.collect()
        gc.disable()
        try:
            results[label] = _time(fn, repeats)
        finally:
            gc.enable()
    results["speedup"] = results["loop"] / results["batched"]
    # The stream-breaking one-generator sampler (opt-in) vs the loop:
    # how much of the per-worker-RNG floor it removes at each scale.
    results["vectorized_speedup"] = results["loop"] / results["vectorized"]
    return results


def bench_local_step_batch(
    num_workers: int, repeats: int, local_steps: int = 4
) -> dict:
    """Batched ClusterTrainer local steps vs the per-worker loop.

    Times ``local_steps`` local SGD steps for the whole cluster on the
    standard MLP workload: the loop path dispatches every layer's numpy
    kernels once per worker per step; the batched path runs one stacked
    forward/backward/update (bit-identical results — see
    tests/test_cluster_trainer.py).
    """
    full = make_blobs(
        num_samples=24 * num_workers,
        num_classes=NUM_CLASSES,
        num_features=LOCAL_STEP_FEATURES,
        rng=0,
    )
    partitions = partition_iid(full, num_workers, rng=0)
    factory = lambda: MLP(
        LOCAL_STEP_FEATURES, LOCAL_STEP_HIDDEN, NUM_CLASSES, rng=0
    )
    return _time_loop_vs_batched(partitions, factory, local_steps, repeats)


#: Conv workload of the batched conv-step section: the TinyCNN preset
#: stand-in (8×8 single-channel synthetic images, width 8 — N = 1418,
#: the fast flavour of the mnist-cnn preset).  The loop path pays n
#: Python dispatches per layer per step *plus* n im2col rearrangements;
#: the batched path runs one stacked im2col per conv layer and per-worker
#: GEMMs over the arena views.
CONV_CHANNELS = 1
CONV_IMAGE_SIZE = 8
CONV_WIDTH = 8


def bench_conv_step_batch(
    num_workers: int, repeats: int, local_steps: int = 2
) -> dict:
    """Batched ClusterTrainer conv local steps vs the per-worker loop.

    Same protocol as :func:`bench_local_step_batch`, on the TinyCNN
    conv workload (bit-identical trajectories — see
    tests/test_cluster_trainer.py ``TestConvEquivalence``).
    """
    full = make_synthetic_images(
        16 * num_workers, num_classes=NUM_CLASSES, channels=CONV_CHANNELS,
        size=CONV_IMAGE_SIZE, noise=0.3, rng=0,
    )
    partitions = partition_iid(full, num_workers, rng=0)
    factory = lambda: TinyCNN(
        in_channels=CONV_CHANNELS, image_size=CONV_IMAGE_SIZE,
        num_classes=NUM_CLASSES, width=CONV_WIDTH, rng=0,
    )
    return _time_loop_vs_batched(partitions, factory, local_steps, repeats)


def bench_event_round(num_workers: int, repeats: int) -> dict:
    """The event engine's hot paths.

    ``queue_events_per_second`` times raw EventQueue push+pop pairs (the
    bookkeeping floor under every async schedule — gated in CI);
    ``async_steps_per_second`` runs the Async-SAPS gossip variant
    end-to-end on the standard MLP workload and reports executed local
    steps per wall-clock second (numeric work included — informational).
    """
    results = {}

    queue_ops = 50_000

    def queue_churn():
        queue = EventQueue()
        # Interleaved pushes at pseudo-random-ish deterministic times,
        # drained in between — the async engine's access pattern.
        for i in range(queue_ops):
            queue.push(float((i * 2_654_435_761) % 1_000_003), lambda t: None)
            if i % 4 == 3:
                queue.pop()
        while queue:
            queue.pop()

    queue_churn()  # warm-up
    best = _time(queue_churn, repeats)
    results["queue_ops"] = queue_ops
    results["queue_seconds"] = best
    results["queue_events_per_second"] = queue_ops / best

    partitions = _workload(num_workers)
    config = ExperimentConfig(rounds=1, batch_size=4, lr=0.05, seed=7)
    bandwidth = random_uniform_bandwidth(num_workers, rng=7)
    network = SimulatedNetwork(num_workers, bandwidth=bandwidth)
    algorithm = AsyncGossip(compression_ratio=20.0, base_seed=7)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_event_experiment(
            algorithm,
            partitions,
            partitions[0],
            _model_factory(),
            config,
            network,
            compute_model=ConstantCompute(0.01),
            duration=2.0,
            checkpoint_every=1.0,
        )
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    results["async_local_steps"] = result.total_local_steps
    results["async_events"] = result.events_processed
    results["async_wall_seconds"] = wall
    results["async_steps_per_second"] = result.total_local_steps / wall
    return results


#: Scale points for the dtype / batched-compression sections (tracked in
#: all modes — they are cheap even at n=128).
DTYPE_BATCH_COUNTS = [32, 128]

#: Scale points for the batched conv-step section (tracked in all modes;
#: the ISSUE's acceptance points for the conv kernels).
CONV_STEP_COUNTS = [32, 128]

#: Scale points for the batched local-step section (tracked in all
#: modes; n=1024 is the acceptance point for the ≥5× target and the
#: regime where per-worker Python dispatch dominated).
LOCAL_STEP_COUNTS = [32, 128, 1024]

def bench_fault_round(num_workers: int, repeats: int) -> dict:
    """Wall-clock cost of an inert (empty) fault plan on the event round.

    Runs the ``event_round`` async-gossip workload twice per repeat —
    once with ``fault_plan=None``, once with an empty
    :class:`FaultPlan` — interleaved to cancel thermal/cache drift, and
    reports the ratio of per-arm medians.  (Best-of ratios proved
    unstable here: one lucky sample on either arm once produced a −9%
    "overhead" for machinery that cannot speed anything up.)  The empty
    plan is contractually inert: same event count, and the CI gate in
    ``run_all.sh`` fails the run if it costs more than 5% wall-clock.
    """
    partitions = _workload(num_workers)
    config = ExperimentConfig(rounds=1, batch_size=4, lr=0.05, seed=7)
    bandwidth = random_uniform_bandwidth(num_workers, rng=7)

    def run_once(plan):
        network = SimulatedNetwork(num_workers, bandwidth=bandwidth)
        algorithm = AsyncGossip(compression_ratio=20.0, base_seed=7)
        gc.collect()
        start = time.perf_counter()
        result = run_event_experiment(
            algorithm,
            partitions,
            partitions[0],
            _model_factory(),
            config,
            network,
            compute_model=ConstantCompute(0.01),
            duration=2.0,
            checkpoint_every=1.0,
            fault_plan=plan,
        )
        return time.perf_counter() - start, result.events_processed

    run_once(None)  # warm-up
    samples_none, samples_empty = [], []
    events_none = events_empty = 0
    for repeat in range(repeats):
        # Alternate which arm goes first: whichever runs second in a
        # pair inherits warmer caches, and a fixed order turns that
        # into a systematic bias (the original always-empty-second
        # ordering measured a −9% "overhead" for inert machinery).
        if repeat % 2 == 0:
            wall, events_none = run_once(None)
            samples_none.append(wall)
            wall, events_empty = run_once(FaultPlan(num_workers))
            samples_empty.append(wall)
        else:
            wall, events_empty = run_once(FaultPlan(num_workers))
            samples_empty.append(wall)
            wall, events_none = run_once(None)
            samples_none.append(wall)
    median_none = float(np.median(samples_none))
    median_empty = float(np.median(samples_empty))
    return {
        "no_plan_seconds": median_none,
        "empty_plan_seconds": median_empty,
        "overhead": median_empty / median_none - 1.0,
        "events_no_plan": events_none,
        "events_empty_plan": events_empty,
    }


#: Scale points for the event-engine section (tracked in all modes —
#: the queue microbench is n-independent, the async gossip run cheap).
EVENT_ROUND_COUNTS = [32]


#: Scale point of the thread-scaling and telemetry sections: the
#: acceptance scale, where the round-bench MLP (N = 7210) partitions
#: into 4 cluster blocks of ≤290 rows under the 16 MB block budget —
#: enough independent blocks for a 4-thread pool to show its scaling.
THREADS_SCALING_COUNTS = [1024]
OBS_OVERHEAD_COUNTS = [1024]


def bench_obs_overhead(num_workers: int, repeats: int) -> dict:
    """Telemetry cost on the fused D-PSGD round, disabled and enabled.

    The disabled bound is analytic rather than differential: a round has
    a handful of ``obs.phase()`` entries whose null-recorder cost is a
    couple hundred nanoseconds each — far below the run-to-run jitter of
    a ~10 ms round, so an off-vs-off A/B would measure noise.  Instead
    the section times the null span directly (a tight 200k-iteration
    loop), counts the spans one instrumented round actually opens, and
    reports their product over the round's wall time.  The *enabled*
    overhead is a real A/B: off-arm vs trace-arm (registry + Chrome
    trace) interleaved per repeat to cancel thermal/cache drift (the
    ``fault_round`` lesson), median per arm.  CI gates disabled ≤ 2%
    and enabled ≤ 10%.
    """
    from repro import obs

    partitions = _workload(num_workers)
    config = ExperimentConfig(rounds=1, batch_size=2, lr=0.05, seed=7)
    workers = make_workers(_model_factory(), partitions, config)
    algorithm = DPSGD()
    algorithm.setup(workers, SimulatedNetwork(num_workers), rng=7)
    next_round = [0]

    def run_round():
        algorithm.run_round(next_round[0])
        next_round[0] += 1

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
        run_round()
        counters = obs.metrics().snapshot()["counters"]
    finally:
        obs.install(previous)
    phase_calls = int(sum(
        value for name, value in counters.items()
        if name.startswith("phase.") and name.endswith(".count")
    ))

    # (c) off vs trace arms, order-balanced per repeat.
    run_round()  # warm-up

    def timed_off():
        gc.collect()
        start = time.perf_counter()
        run_round()
        return time.perf_counter() - start

    def timed_trace():
        prev = obs.install(None)
        try:
            obs.start("trace")
            return timed_off()
        finally:
            obs.install(prev)

    samples_off, samples_trace = [], []
    for repeat in range(repeats):
        if repeat % 2 == 0:
            samples_off.append(timed_off())
            samples_trace.append(timed_trace())
        else:
            samples_trace.append(timed_trace())
            samples_off.append(timed_off())
    off = float(np.median(samples_off))
    traced = float(np.median(samples_trace))
    return {
        "phase_calls_per_round": phase_calls,
        "null_span_ns": null_span_s * 1e9,
        "round_seconds_off": off,
        "round_seconds_trace": traced,
        "overhead_disabled": phase_calls * null_span_s / off,
        "overhead_enabled": traced / off - 1.0,
    }


def bench_threads_scaling(
    num_workers: int, repeats: int, local_steps: int = 2
) -> dict:
    """Batched local-step pass at 1, 2 and 4 worker threads.

    Times the same :meth:`ClusterTrainer.batched_steps` pass (the
    round-bench MLP at ``num_workers``) under
    :func:`repro.utils.parallel.set_num_threads` — the block partition is
    fixed, so every configuration runs identical kernels and the results
    stay bit-identical; only concurrency changes.  Records
    ``cpu_count`` so the CI gate can require real scaling on multi-core
    boxes and only sanity (no serial regression) on single-core ones.
    """
    from repro.utils import parallel

    partitions = _workload(num_workers)
    config = ExperimentConfig(rounds=1, batch_size=4, lr=0.05, seed=7)
    workers = make_workers(_model_factory(), partitions, config)
    trainer = ClusterTrainer.build(workers)
    assert trainer is not None
    results = {
        "cpu_count": os.cpu_count(),
        "local_steps": local_steps,
        "num_blocks": len(
            parallel.block_ranges(num_workers, trainer._block_rows())
        ),
        "threads": {},
    }
    try:
        for threads in (1, 2, 4):
            parallel.set_num_threads(threads)
            trainer.batched_steps(local_steps)  # warm-up (builds contexts)
            gc.collect()
            gc.disable()
            try:
                results["threads"][str(threads)] = _time(
                    lambda: trainer.batched_steps(local_steps), repeats
                )
            finally:
                gc.enable()
    finally:
        parallel.set_num_threads(None)
    serial = results["threads"]["1"]
    results["speedup_2"] = serial / results["threads"]["2"]
    results["speedup_4"] = serial / results["threads"]["4"]
    return results


#: The sampling-storm workload shape for the scheduler-throughput
#: section: a standing population of self-rescheduling far-future events
#: (client up/down renewals) plus near-now bursts (one round's sampled
#: participants).  This is exactly the access pattern the calendar queue
#: was built for — the heap pays O(log population) per op against the
#: whole standing set; the calendar pays O(1) amortized because only the
#: current bucket is ever sorted.
EVENT_THROUGHPUT_POPULATION = 500_000
EVENT_THROUGHPUT_ROUNDS = 100
EVENT_THROUGHPUT_BURST = 512
EVENT_THROUGHPUT_HORIZON = 200.0


def bench_event_throughput(repeats: int) -> dict:
    """Calendar queue vs binary heap on the sampling-storm workload.

    Seeds each queue with ``EVENT_THROUGHPUT_POPULATION`` standing
    events uniform over the renewal horizon, then runs
    ``EVENT_THROUGHPUT_ROUNDS`` rounds: push a ``BURST`` of near-now
    events, drain everything due, and reschedule each popped standing
    event ``uniform(100, 200)`` ahead — the million-client engine's
    exact pattern (population renewals + per-round participant storms).
    Both queues process the identical deterministic schedule; reported
    events/s counts pushes+pops actually performed.  The CI gate
    requires the calendar to clear ≥2× the heap.
    """
    from repro.sim.calendar import CalendarQueue

    horizon = EVENT_THROUGHPUT_HORIZON
    step = horizon / EVENT_THROUGHPUT_ROUNDS / 4

    def storm(queue_factory):
        """One full storm; returns (ops, seconds) for the round loop only.

        Seeding the standing population is setup, not workload — the
        engine pays it once at enrolment while the storm repeats every
        round — so it stays outside the timed region.  Renewal deltas
        are pre-drawn for the same reason: the RNG cost is identical in
        both arms and would only dilute the scheduler difference.
        """
        rng = np.random.default_rng(42)
        queue = queue_factory()
        seed_times = rng.uniform(0.0, horizon, size=EVENT_THROUGHPUT_POPULATION)
        queue.push_many([(float(t), None) for t in seed_times])
        bursts = [
            [
                (float(t), "burst")
                for t in now + rng.uniform(0.0, 0.5, size=EVENT_THROUGHPUT_BURST)
            ]
            for now in (
                step * (r + 1) for r in range(EVENT_THROUGHPUT_ROUNDS)
            )
        ]
        renewals = rng.uniform(100.0, 200.0, size=2 * EVENT_THROUGHPUT_POPULATION)
        renewals = renewals.tolist()
        ops = 0
        renewed = 0
        now = 0.0
        start = time.perf_counter()
        for burst in bursts:
            now += step
            queue.push_many(burst)
            ops += EVENT_THROUGHPUT_BURST
            while queue and queue.peek_time() <= now:
                time_s, action = queue.pop()
                ops += 1
                if action is None:  # standing population event: renew
                    queue.push(time_s + renewals[renewed], None)
                    renewed += 1
                    ops += 1
        return ops, time.perf_counter() - start

    results = {
        "population": EVENT_THROUGHPUT_POPULATION,
        "rounds": EVENT_THROUGHPUT_ROUNDS,
        "burst": EVENT_THROUGHPUT_BURST,
    }
    for label, factory in (("heap", EventQueue), ("calendar", CalendarQueue)):
        ops, _ = storm(factory)  # warm-up (and records the op count)
        samples = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(max(repeats - 2, 3)):
                samples.append(storm(factory)[1])
        finally:
            gc.enable()
        seconds = float(np.median(samples))
        results[f"{label}_ops"] = ops
        results[f"{label}_seconds"] = seconds
        results[f"{label}_events_per_second"] = ops / seconds
    results["speedup"] = (
        results["calendar_events_per_second"]
        / results["heap_events_per_second"]
    )
    return results


#: Enrolment scale for the sharded-memory section: large enough that a
#: dense arena would be the dominant allocation, small enough to build
#: the dense baseline for an honest comparison line.
SHARDED_MEMORY_ENROLLED = 100_000
SHARDED_MEMORY_CAPACITY = 1024
SHARDED_MEMORY_ROUNDS = 20
SHARDED_MEMORY_SAMPLE = 512


def bench_sharded_memory(model_size: int = 330) -> dict:
    """Resident bytes per enrolled client: ShardedArena vs dense line.

    Enrolls ``SHARDED_MEMORY_ENROLLED`` clients in a ShardedArena with
    ``SHARDED_MEMORY_CAPACITY`` resident rows, runs
    ``SHARDED_MEMORY_ROUNDS`` rounds of ``SHARDED_MEMORY_SAMPLE``
    distinct row touches (write + read back, the sampled-participation
    access pattern), and reports resident bytes per enrolled client
    against the dense line ``2 * model_size * itemsize`` (params +
    grads).  Not a timing benchmark — the gate is purely on memory: the
    sharded figure must stay below the dense line (at these settings
    ~1/48th of it; the ratio improves linearly with enrolment since
    residency is capacity-bound).
    """
    from repro.nn import ShardedArena

    rng = np.random.default_rng(0)
    arena = ShardedArena(
        SHARDED_MEMORY_ENROLLED, model_size,
        capacity=SHARDED_MEMORY_CAPACITY, retain_evicted=False,
        cold=np.zeros(model_size),
    )
    touched = set()
    for round_index in range(SHARDED_MEMORY_ROUNDS):
        clients = rng.choice(
            SHARDED_MEMORY_ENROLLED, size=SHARDED_MEMORY_SAMPLE, replace=False
        )
        for client in clients.tolist():
            arena.row(client)[...] = float(round_index + 1)
            assert arena.row(client)[0] == float(round_index + 1)
            touched.add(client)
    resident = arena.resident_bytes()
    dense_per_enrolled = 2 * model_size * arena.dtype.itemsize
    return {
        "enrolled": SHARDED_MEMORY_ENROLLED,
        "capacity": SHARDED_MEMORY_CAPACITY,
        "model_size": model_size,
        "clients_touched": len(touched),
        "resident_bytes": resident,
        "resident_bytes_per_enrolled": resident / SHARDED_MEMORY_ENROLLED,
        "dense_bytes_per_enrolled": dense_per_enrolled,
        "memory_reduction": (
            dense_per_enrolled * SHARDED_MEMORY_ENROLLED / resident
        ),
        "stats": arena.stats(),
    }


#: Gossip-family scale point: the sampled-neighborhood SAPS round at
#: the same enrolment as the memory section, full algorithm (selection,
#: matching, local SGD, masked exchange) rather than raw row touches.
GOSSIP_SAMPLED_ENROLLED = 100_000
GOSSIP_SAMPLED_SAMPLE = 512
GOSSIP_SAMPLED_ROUNDS = 8


def bench_gossip_sampled() -> dict:
    """Seconds per sampled-neighborhood SAPS round at 100k enrolled.

    Runs ``GOSSIP_SAMPLED_ROUNDS`` full :class:`SampledSAPS` rounds —
    participant draw through the shared participation layer, bottleneck-
    link max-weight matching within the sample, local SGD and the
    Eq. (7) shared-mask exchange on pinned ShardedArena rows — and
    reports the median round time plus the resident-memory figure the
    CI gate holds below the dense ``2 * N * itemsize`` line.
    """
    from repro.algorithms import LogisticBlobsTask, SampledSAPS

    task = LogisticBlobsTask(seed=0)
    algorithm = SampledSAPS(
        task,
        GOSSIP_SAMPLED_ENROLLED,
        sample_size=GOSSIP_SAMPLED_SAMPLE,
        seed=0,
    )
    algorithm.run_round(0)  # warm-up: first faults + bandwidth derives
    samples = []
    for round_index in range(1, GOSSIP_SAMPLED_ROUNDS + 1):
        start = time.perf_counter()
        algorithm.run_round(round_index)
        samples.append(time.perf_counter() - start)
    resident = algorithm.arena.resident_bytes()
    dense_per_enrolled = 2 * task.model_size * algorithm.arena.dtype.itemsize
    return {
        "enrolled": GOSSIP_SAMPLED_ENROLLED,
        "sample_size": GOSSIP_SAMPLED_SAMPLE,
        "capacity": algorithm.arena.capacity,
        "model_size": task.model_size,
        "seconds_per_round": float(np.median(samples)),
        "exchanges": algorithm.exchange_count,
        "resident_bytes": resident,
        "resident_bytes_per_enrolled": resident / GOSSIP_SAMPLED_ENROLLED,
        "dense_bytes_per_enrolled": dense_per_enrolled,
        "memory_reduction": (
            dense_per_enrolled * GOSSIP_SAMPLED_ENROLLED / resident
        ),
        "stats": algorithm.arena.stats(),
    }


def run_suite(quick: bool, repeats: int) -> dict:
    dtype_rounds = 5 if quick else 15
    model_size = _model_factory()().num_parameters()
    report = {
        "model_size": model_size,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "dtype_round": {},
        "compression_batch": {},
        "local_step_batch": {},
        "conv_step_batch": {},
        "event_round": {},
        "fault_round": {},
        "threads_scaling": {},
        "obs_overhead": {},
        "event_throughput": {},
        "sharded_memory": {},
        "gossip_sampled": {},
    }
    for n in DTYPE_BATCH_COUNTS:
        print(f"n={n:4d}  float32 vs float64 round ...", flush=True)
        report["dtype_round"][str(n)] = bench_dtype_round(
            n, dtype_rounds, max(repeats - 2, 2)
        )
        print(f"n={n:4d}  batched vs per-row compression ...", flush=True)
        report["compression_batch"][str(n)] = bench_compression_batch(n, repeats)
    for n in LOCAL_STEP_COUNTS:
        print(f"n={n:4d}  batched vs loop local step ...", flush=True)
        # Mean-of-8 minimum: this section is cheap even at n=1024 and
        # the extra samples keep the tracked speedup stable.
        report["local_step_batch"][str(n)] = bench_local_step_batch(
            n, max(repeats, 8)
        )
    for n in CONV_STEP_COUNTS:
        print(f"n={n:4d}  batched vs loop conv step ...", flush=True)
        report["conv_step_batch"][str(n)] = bench_conv_step_batch(
            n, max(repeats, 8)
        )
    for n in EVENT_ROUND_COUNTS:
        print(f"n={n:4d}  event engine (queue + async gossip) ...", flush=True)
        report["event_round"][str(n)] = bench_event_round(n, max(repeats - 2, 2))
        print(f"n={n:4d}  empty fault plan overhead ...", flush=True)
        report["fault_round"][str(n)] = bench_fault_round(n, max(repeats - 2, 3))
    for n in THREADS_SCALING_COUNTS:
        print(f"n={n:4d}  thread scaling (1/2/4 threads) ...", flush=True)
        report["threads_scaling"][str(n)] = bench_threads_scaling(
            n, max(repeats - 2, 3)
        )
    for n in OBS_OVERHEAD_COUNTS:
        print(f"n={n:4d}  telemetry overhead (off / trace) ...", flush=True)
        report["obs_overhead"][str(n)] = bench_obs_overhead(
            n, max(repeats - 2, 3)
        )
    print(f"n={EVENT_THROUGHPUT_POPULATION}  calendar vs heap "
          "sampling storm ...", flush=True)
    report["event_throughput"][str(EVENT_THROUGHPUT_POPULATION)] = (
        bench_event_throughput(repeats)
    )
    print(f"n={SHARDED_MEMORY_ENROLLED}  sharded arena resident "
          "memory ...", flush=True)
    report["sharded_memory"][str(SHARDED_MEMORY_ENROLLED)] = (
        bench_sharded_memory(model_size)
    )
    print(f"n={GOSSIP_SAMPLED_ENROLLED}  sampled-neighborhood SAPS "
          "round ...", flush=True)
    report["gossip_sampled"][str(GOSSIP_SAMPLED_ENROLLED)] = (
        bench_gossip_sampled()
    )
    return report


def render(report: dict) -> str:
    lines = [
        f"hot paths (model_size={report['model_size']}, "
        f"quick={report['quick']})",
        f"{'bench':>16} {'n':>5} {'float64_s':>12} {'float32_s':>12} "
        f"{'speedup':>8} {'mem':>6}",
    ]
    for n, row in report["dtype_round"].items():
        lines.append(
            f"{'dtype_round':>16} {n:>5} {row['float64']:>12.3e} "
            f"{row['float32']:>12.3e} {row['speedup']:>7.1f}x "
            f"{row['memory_reduction']:>5.1f}x"
        )
    lines.append(
        f"{'bench':>16} {'n':>5} {'per_row_s':>12} {'batched_s':>12} "
        f"{'speedup':>8}"
    )
    for n, by_scheme in report["compression_batch"].items():
        for scheme, row in by_scheme.items():
            lines.append(
                f"{'compress:' + scheme:>16} {n:>5} {row['per_row']:>12.3e} "
                f"{row['batched']:>12.3e} {row['speedup']:>7.1f}x"
            )
    lines.append(
        f"{'bench':>16} {'n':>5} {'loop_s':>12} {'batched_s':>12} "
        f"{'speedup':>8}"
    )
    for n, row in report["local_step_batch"].items():
        lines.append(
            f"{'local_step':>16} {n:>5} {row['loop']:>12.3e} "
            f"{row['batched']:>12.3e} {row['speedup']:>7.1f}x "
            f"(vec {row['vectorized_speedup']:.1f}x)"
        )
    for n, row in report["conv_step_batch"].items():
        lines.append(
            f"{'conv_step':>16} {n:>5} {row['loop']:>12.3e} "
            f"{row['batched']:>12.3e} {row['speedup']:>7.1f}x"
        )
    for n, row in report["event_round"].items():
        lines.append(
            f"{'event_round':>16} {n:>5} "
            f"queue {row['queue_events_per_second']:>10.0f} ev/s  "
            f"async {row['async_steps_per_second']:>8.0f} steps/s "
            f"({row['async_events']} events)"
        )
    for n, row in report["fault_round"].items():
        lines.append(
            f"{'fault_round':>16} {n:>5} "
            f"no-plan {row['no_plan_seconds']:>9.3e}  "
            f"empty-plan {row['empty_plan_seconds']:>9.3e}  "
            f"overhead {100 * row['overhead']:>+5.1f}%"
        )
    for n, row in report["threads_scaling"].items():
        lines.append(
            f"{'threads_scaling':>16} {n:>5} "
            f"1t {row['threads']['1']:>9.3e}  "
            f"2t {row['speedup_2']:>4.2f}x  "
            f"4t {row['speedup_4']:>4.2f}x  "
            f"({row['num_blocks']} blocks, {row['cpu_count']} cores)"
        )
    for n, row in report["obs_overhead"].items():
        lines.append(
            f"{'obs_overhead':>16} {n:>5} "
            f"off {row['round_seconds_off']:>9.3e}  "
            f"trace {row['round_seconds_trace']:>9.3e}  "
            f"disabled {100 * row['overhead_disabled']:>6.3f}%  "
            f"enabled {100 * row['overhead_enabled']:>+5.1f}%  "
            f"({row['phase_calls_per_round']} spans, "
            f"{row['null_span_ns']:.0f} ns null)"
        )
    for n, row in report["event_throughput"].items():
        lines.append(
            f"{'event_thruput':>16} {n:>5} "
            f"heap {row['heap_events_per_second']:>10.0f} ev/s  "
            f"calendar {row['calendar_events_per_second']:>10.0f} ev/s  "
            f"{row['speedup']:>4.2f}x"
        )
    for n, row in report["sharded_memory"].items():
        lines.append(
            f"{'sharded_memory':>16} {n:>5} "
            f"resident {row['resident_bytes_per_enrolled']:>8.2f} B/client  "
            f"dense {row['dense_bytes_per_enrolled']:>6.0f} B/client  "
            f"{row['memory_reduction']:>5.1f}x smaller"
        )
    for n, row in report["gossip_sampled"].items():
        lines.append(
            f"{'gossip_sampled':>16} {n:>5} "
            f"{row['seconds_per_round']:>9.3e} s/round  "
            f"resident {row['resident_bytes_per_enrolled']:>8.2f} B/client  "
            f"dense {row['dense_bytes_per_enrolled']:>6.0f} B/client  "
            f"{row['memory_reduction']:>5.1f}x smaller"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer rounds per timed burst; finishes well under 60 s",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per section (default 5)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"JSON report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats else 5
    started = time.perf_counter()
    report = run_suite(args.quick, repeats)
    report["bench_wall_seconds"] = round(time.perf_counter() - started, 2)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    print(f"\nwrote {args.output} in {report['bench_wall_seconds']:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
