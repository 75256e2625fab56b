"""One repeat of one workload, in a process of its own.

``run.py`` starts this file once per repeat with the thread environment
pinned, passing its own ``perf_counter`` reading at spawn time
(``CLOCK_MONOTONIC`` is system-wide on Linux), so ``setup_s`` counts the
interpreter start and the imports too.  The last line of stdout is one
JSON object: timings, the evaluation series and its digest, the counts
the correctness checks need and, with ``--trace 1``, the per-layer
totals.  Nothing is judged here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "REPRO_NUM_THREADS",
)


def _blas_vendor() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def _round_ms(stamps, run_start):
    """p50 always; p95 only with at least ten samples beyond it."""
    if not stamps:
        return 0.0, 0.0
    edges = [run_start] + list(stamps)
    laps = sorted(1000.0 * (b - a) for a, b in zip(edges, edges[1:]))
    p50 = statistics.median(laps)
    p95 = laps[int(0.95 * len(laps))] if len(laps) >= 200 else 0.0
    return p50, p95


class Marks:
    """The workload's only view of the clock and of the boundary between
    set-up and the timed region."""

    def __init__(self, clock, tracer) -> None:
        self.clock = clock
        self.tracer = tracer
        self.run_start = None
        self.cpu_start = None

    def run_begins(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            if tracer.depth != 1:
                raise RuntimeError("set-up ended inside a wrapped call")
            tracer.end()
        self.cpu_start = time.process_time()
        self.run_start = self.clock()
        if tracer is not None:
            tracer.begin("sim.engine")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    clock = time.perf_counter

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(clock)
        tracer.begin("setup")

    # Everything the workloads import lazily, up front, so that the
    # import share of set-up is one stamp and the same work in both modes.
    import numpy
    import repro
    import repro.algorithms
    import repro.data
    import repro.network
    import repro.nn
    import repro.presets
    import repro.sim

    imported_at = clock()
    import workloads

    if tracer is not None:
        import layers

        layers.install(tracer)
        installed_at = clock()
    else:
        installed_at = imported_at

    marks = Marks(clock, tracer)
    workload = workloads.BY_NAME[args.workload]
    out = workload.run(args.seed, bool(args.smoke), marks)
    run_end = clock()
    if marks.run_start is None:
        raise RuntimeError(f"{args.workload} never marked the end of set-up")
    cpu_s = time.process_time() - marks.cpu_start
    leaked = None
    if tracer is not None:
        tracer.end()
        tracer.restore()
        leaked = tracer.leaked()

    run_s = run_end - marks.run_start
    # Patching is the tracer's cost, not the program's set-up.
    setup_s = (marks.run_start - args.spawned_at) - (installed_at - imported_at)
    digest = hashlib.sha256()
    for point in out.evals:
        for value in (point.sim_time_s, point.traffic_mb, point.accuracy,
                      point.val_loss):
            digest.update(float(value).hex().encode())
    p50, p95 = _round_ms(out.round_stamps, marks.run_start)
    counters = dict(out.counters)
    counters.setdefault("compression.bytes_out", counters["network.bytes_wire"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "smoke": bool(args.smoke),
        "setup_s": setup_s,
        "import_s": imported_at - args.spawned_at,
        "run_s": run_s,
        "offcpu_share": max(0.0, 1.0 - cpu_s / run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": out.steps,
        "declared_steps": out.declared_steps,
        "evals": [
            [p.sim_time_s, p.traffic_mb, p.accuracy, p.val_loss] for p in out.evals
        ],
        "digest": digest.hexdigest(),
        "losses_finite": bool(
            out.train_losses and numpy.isfinite(out.train_losses).all()
            and numpy.isfinite([p.val_loss for p in out.evals]).all()
        ),
        "bytes_sent": out.bytes_sent,
        "bytes_received": out.bytes_received,
        "counters": counters,
        "sizes": out.sizes,
        "round_ms_p50": p50,
        "round_ms_p95": p95,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": _blas_vendor(),
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        },
    }
    if tracer is not None:
        from spans import root_span, summarize

        run = summarize(tracer.spans, since=marks.run_start)
        setup = summarize(
            s for s in tracer.spans if s[3] < marks.run_start
        )
        root = root_span(tracer.spans, "sim.engine")
        record["trace"] = {
            "run_s": root[4] - root[3],
            "layers": {
                name: [t.calls, t.busy_s, t.self_s] for name, t in run.items()
            },
            "setup_phases": {
                name.split(".", 1)[1]: t.busy_s
                for name, t in setup.items() if name.startswith("setup.")
            },
            "spans": len(tracer.spans),
            "leaked": leaked,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
