#!/usr/bin/env bash
# Quick performance pass for CI / local loops.
#
#   benchmarks/run_all.sh           # hot-path micro-benchmarks, < 60 s
#   benchmarks/run_all.sh --full    # longer timed bursts
#
# Extra arguments are forwarded to benchmarks.bench_hot_paths.
# The paper-figure benchmark suite (bench_fig*.py, bench_table*.py) runs
# separately via `pytest benchmarks/` and is not part of the quick pass.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="--quick"
if [ "${1:-}" = "--full" ]; then
    MODE=""
    shift
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m benchmarks.bench_hot_paths $MODE "$@"

# Regression gate: the batched ClusterTrainer step (MLP and conv
# workloads) must never be slower than the per-worker loop at any
# tracked scale point.
python - <<'PY'
import json
import sys

report = json.load(open("BENCH_hot_paths.json"))
for name in ("local_step_batch", "conv_step_batch"):
    section = report.get(name, {})
    if not section:
        sys.exit(f"BENCH_hot_paths.json has no {name} section")
    bad = {
        n: round(row["speedup"], 3)
        for n, row in section.items()
        if row["speedup"] < 1.0
    }
    if bad:
        sys.exit(f"{name} regressed below 1x the loop: {bad}")
    print(
        f"{name} gate ok:",
        {n: f"{row['speedup']:.1f}x" for n, row in section.items()},
    )

# Event-engine gate: the queue bookkeeping floor must stay cheap (the
# async schedules pay it per event), and the async gossip run must have
# actually executed work.
section = report.get("event_round", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no event_round section")
for n, row in section.items():
    if row["queue_events_per_second"] < 20_000:
        sys.exit(
            f"event_round queue throughput regressed: "
            f"{row['queue_events_per_second']:.0f} ev/s at n={n}"
        )
    if row["async_local_steps"] <= 0:
        sys.exit(f"event_round async run executed no local steps at n={n}")
print(
    "event_round gate ok:",
    {
        n: f"{row['queue_events_per_second'] / 1e6:.2f}M ev/s, "
        f"{row['async_steps_per_second']:.0f} steps/s"
        for n, row in section.items()
    },
)

# Fault-machinery gate: an empty FaultPlan is contractually inert — it
# must schedule nothing (identical event count) and add at most 5%
# wall-clock overhead to the event round.
section = report.get("fault_round", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no fault_round section")
for n, row in section.items():
    if row["events_empty_plan"] != row["events_no_plan"]:
        sys.exit(
            f"empty fault plan changed the event count at n={n}: "
            f"{row['events_no_plan']} -> {row['events_empty_plan']}"
        )
    if row["overhead"] > 0.05:
        sys.exit(
            f"empty fault plan overhead {100 * row['overhead']:.1f}% "
            f"exceeds 5% at n={n}"
        )
print(
    "fault_round gate ok:",
    {n: f"{100 * row['overhead']:+.1f}%" for n, row in section.items()},
)

# Batched top-k gate: the row-blocked axis-1 argpartition must beat the
# per-row loop clearly on multi-core boxes (the blocks run on the
# thread pool there).  On single-core runners the blocked path is only
# within dispatch-overhead noise of the loop (measured ~0.86-1.05x), so
# the floor degrades to "no real regression".
cpu_count = report.get("cpu_count") or 1
topk_floor = 2.0 if cpu_count >= 4 else 0.8
section = report.get("compression_batch", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no compression_batch section")
bad = {
    n: round(rows["topk"]["speedup"], 3)
    for n, rows in section.items()
    if rows["topk"]["speedup"] < topk_floor
}
if bad:
    sys.exit(
        f"batched top-k below the {topk_floor}x floor "
        f"(cpu_count={cpu_count}): {bad}"
    )
print(
    f"compression_batch.topk gate ok (floor {topk_floor}x, "
    f"{cpu_count} cores):",
    {n: f"{rows['topk']['speedup']:.2f}x" for n, rows in section.items()},
)

# Thread-scaling gate: 4 worker threads over the 4-block n=1024 pass
# must deliver real scaling where the cores exist; on smaller boxes the
# requirement degrades to "threading must not wreck the serial path"
# (the pool adds dispatch but the blocks still run one at a time).
section = report.get("threads_scaling", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no threads_scaling section")
for n, row in section.items():
    cores = row.get("cpu_count") or 1
    floor = 1.8 if cores >= 4 else 0.5
    if row["speedup_4"] < floor:
        sys.exit(
            f"threads_scaling speedup_4 {row['speedup_4']:.2f}x below the "
            f"{floor}x floor at n={n} (cpu_count={cores})"
        )
print(
    "threads_scaling gate ok:",
    {
        n: f"2t {row['speedup_2']:.2f}x, 4t {row['speedup_4']:.2f}x "
        f"({row['cpu_count']} cores)"
        for n, row in section.items()
    },
)

# Telemetry gate: the disabled path (null recorder) must stay near-free
# — its analytic bound (measured null-span cost x spans per round, over
# the round's wall time) at most 2% — and the fully enabled path
# (metrics registry + Chrome trace) at most 10% against the interleaved
# off-arm on the n=1024 D-PSGD round.
section = report.get("obs_overhead", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no obs_overhead section")
for n, row in section.items():
    if row["overhead_disabled"] > 0.02:
        sys.exit(
            f"disabled telemetry overhead "
            f"{100 * row['overhead_disabled']:.2f}% exceeds 2% at n={n} "
            f"({row['phase_calls_per_round']} spans x "
            f"{row['null_span_ns']:.0f} ns)"
        )
    if row["overhead_enabled"] > 0.10:
        sys.exit(
            f"enabled telemetry overhead "
            f"{100 * row['overhead_enabled']:.1f}% exceeds 10% at n={n}"
        )
print(
    "obs_overhead gate ok:",
    {
        n: f"disabled {100 * row['overhead_disabled']:.3f}%, "
        f"enabled {100 * row['overhead_enabled']:+.1f}%"
        for n, row in section.items()
    },
)

# Calendar-queue gate: on the sampling-storm workload (500k standing
# renewal events + per-round participant bursts) the bucketed scheduler
# must clear at least 2x the binary heap's events/s — the headline
# claim of the million-client scheduler work (measured ~2.5x).
section = report.get("event_throughput", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no event_throughput section")
for n, row in section.items():
    if row["speedup"] < 2.0:
        sys.exit(
            f"calendar queue speedup {row['speedup']:.2f}x below the "
            f"2x floor on the sampling storm (population={n})"
        )
print(
    "event_throughput gate ok:",
    {
        n: f"heap {row['heap_events_per_second'] / 1e3:.0f}k ev/s, "
        f"calendar {row['calendar_events_per_second'] / 1e3:.0f}k ev/s "
        f"({row['speedup']:.2f}x)"
        for n, row in section.items()
    },
)

# Sharded-arena gate: resident bytes per enrolled client must stay
# below the dense line (2 * model_size * itemsize per client) — the
# memory claim of the sampled-participation mode.  At the tracked
# settings (100k enrolled, 1024 resident rows) the honest figure is
# ~1% of dense; the gate only requires "below dense" so capacity
# retuning can't silently break it.
section = report.get("sharded_memory", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no sharded_memory section")
for n, row in section.items():
    if row["resident_bytes_per_enrolled"] >= row["dense_bytes_per_enrolled"]:
        sys.exit(
            f"sharded arena resident bytes/enrolled "
            f"{row['resident_bytes_per_enrolled']:.1f} not below the dense "
            f"line {row['dense_bytes_per_enrolled']} at n={n}"
        )
print(
    "sharded_memory gate ok:",
    {
        n: f"{row['resident_bytes_per_enrolled']:.1f} B/client vs dense "
        f"{row['dense_bytes_per_enrolled']} ({row['memory_reduction']:.0f}x)"
        for n, row in section.items()
    },
)

# Gossip-family gate: the full sampled-neighborhood SAPS round (100k
# enrolled, 512 sampled) must keep resident bytes per enrolled client
# below the dense line and must actually exchange — the memory claim
# extended from raw row touches to the complete gossip algorithm
# (writeback store included, since peer state must survive evictions).
section = report.get("gossip_sampled", {})
if not section:
    sys.exit("BENCH_hot_paths.json has no gossip_sampled section")
for n, row in section.items():
    if row["resident_bytes_per_enrolled"] >= row["dense_bytes_per_enrolled"]:
        sys.exit(
            f"sampled SAPS resident bytes/enrolled "
            f"{row['resident_bytes_per_enrolled']:.1f} not below the dense "
            f"line {row['dense_bytes_per_enrolled']} at n={n}"
        )
    if row["exchanges"] <= 0:
        sys.exit(f"sampled SAPS round performed no exchanges at n={n}")
print(
    "gossip_sampled gate ok:",
    {
        n: f"{row['seconds_per_round'] * 1e3:.0f} ms/round, "
        f"{row['resident_bytes_per_enrolled']:.1f} B/client vs dense "
        f"{row['dense_bytes_per_enrolled']} ({row['memory_reduction']:.0f}x)"
        for n, row in section.items()
    },
)
PY
