#!/usr/bin/env python3
"""End-to-end benchmark runner.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, the driver's contract: ``S // 4`` repeats
  (each timed run is sized to last at least 4 s) in fresh single-threaded
  subprocesses, every metric printed by name with its unit, and one JSON
  object on the last line.  ``--trace 0`` measures the end-to-end
  metrics; ``--trace 1`` runs one untraced reference repeat and spends
  the rest on traced repeats for the per-layer metrics.
* ``python3 benchmarks/e2e/run.py [--seed 1] [--out FILE]`` — the whole
  set: all five workloads, untraced repeats interleaved round-robin so
  one noisy burst cannot hit every repeat of one workload, then one
  traced repeat each.  ``--selfcheck`` runs the set twice and compares
  the two against the bounds in ``BENCHMARK.json``; ``--smoke`` shrinks
  every workload so the set finishes in seconds (schema tests).

Exit status is non-zero when a correctness check fails, a size guard
trips (whole-set mode), or ``--selfcheck`` finds a breach.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import layers
import workloads
from child import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Each untraced timed run must last at least this long (size guard), and
#: ``--seconds`` buys one repeat per this many seconds.
RUN_FLOOR_S = 4.0
#: Time cap per repeat (set-up + run + interpreter): the driver's budget
#: of 30 s per invocation over its three repeats.
REPEAT_CAP_S = 10.0
#: A repeat whose process was off the CPU for more than this share of its
#: timed region is reported (not failed): the box was busy.
OFFCPU_WARN = 0.10
#: End-to-end metrics that are simulated statistics: deterministic for a
#: seed, so two sets of runs of the same code must agree exactly.
EXACT = ("sim_time_to_target_s", "traffic_to_target_mb", "final_accuracy")
EXACT_REL = 1e-9
#: Three repeats must fit the driver's 180 s per invocation.
CHILD_TIMEOUT_S = 50.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # The box has two shared cores: one thread everywhere.
    env.update({name: "1" for name in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # No bytecode cache: every repeat compiles ``repro`` the same way, and
    # nothing is written into the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    """One repeat in a fresh process; a dead repeat becomes
    ``{"error": ...}`` and fails its ``completed`` check."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--smoke", str(int(smoke)),
        "--spawned-at", repr(time.perf_counter()),
    ]
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "traced": trace,
                "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    if done.returncode != 0:
        return {"workload": workload, "traced": trace,
                "error": done.stderr.strip()[-2000:] or f"exit {done.returncode}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(
    names: List[str], seed: int, untraced: int, traced: int, smoke: bool
) -> Dict[str, List[dict]]:
    """``untraced`` + ``traced`` repeats of each workload, round-robin."""
    records: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat in range(untraced + traced):
        for name in names:
            records[name].append(spawn(name, seed, repeat >= untraced, smoke))
    return records


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _spread(values: List[float]) -> dict:
    """Median, quartiles and all samples of one metric."""
    summary = {"value": statistics.median(values), "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["q1"], summary["q3"] = q1, q3
    return summary


def summarize(workload, records: List[dict], benchmark: dict) -> dict:
    """Checks, end-to-end metrics (untraced repeats) and per-layer metrics
    (traced repeats) of one workload."""
    outcome: Dict[str, List[bool]] = {}
    for record in records:
        for name, passed in checks.repeat_checks(workload, record).items():
            outcome.setdefault(name, []).append(bool(passed))
    for name, passed in checks.set_checks(records).items():
        outcome.setdefault(name, []).append(bool(passed))
    attempted = sum(len(v) for v in outcome.values())
    failed = sum(v.count(False) for v in outcome.values())
    summary = {
        "checks": {
            name: {"attempted": len(v), "failed": v.count(False)}
            for name, v in outcome.items()
        },
        "attempted": attempted,
        "failed": failed,
        "errors": [r["error"] for r in records if "error" in r],
        "end_to_end": {},
        "per_layer": {},
        "warnings": [],
        #: Timed runs shorter than the floor (size guard, whole-set mode).
        "below_floor": 0,
    }
    done = [r for r in records if "error" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain:
        return summary
    summary["sizes"] = dict(plain[0]["sizes"], steps=plain[0]["steps"],
                            target_accuracy=workload.target)
    summary["env"] = plain[0]["env"]

    evals = plain[0]["evals"]
    crossed = checks.crossing(evals, workload.target)
    if crossed is None:
        if not plain[0]["smoke"]:
            # Never report a time-to-target from a run that stopped at its
            # horizon without crossing.
            return summary
        crossed = (len(evals) - 1, evals[-1][0], evals[-1][1])
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    values = {
        "setup_s": _spread([r["setup_s"] for r in plain]),
        "run_s": _spread([r["run_s"] for r in plain]),
        "worker_steps_per_s": _spread([r["steps"] / r["run_s"] for r in plain]),
        "peak_rss_mb": _spread([r["peak_rss_mb"] for r in plain]),
        "sim_time_to_target_s": {"value": crossed[1]},
        "traffic_to_target_mb": {"value": crossed[2]},
        "final_accuracy": {"value": evals[-1][2]},
        "ok_share": {"value": (attempted - failed) / attempted},
    }
    summary["end_to_end"] = {
        name: dict(values[name], unit=units[name]) for name in units
    }

    offcpu = [r["offcpu_share"] for r in plain]
    for record in plain:
        if record["offcpu_share"] > OFFCPU_WARN:
            summary["warnings"].append(
                f"host.offcpu_share {record['offcpu_share']:.2f} on a repeat: "
                f"the box was busy, timings of this set are suspect"
            )
        if not record["smoke"] and record["run_s"] < RUN_FLOOR_S:
            summary["below_floor"] += 1
            summary["warnings"].append(
                f"timed run lasted {record['run_s']:.2f} s, below the "
                f"{RUN_FLOOR_S:.0f} s floor"
            )
    if not traced:
        return summary

    def median_of(getter) -> float:
        return statistics.median(getter(r) for r in traced)

    per_layer: Dict[str, float] = {}
    for layer in layers.LAYERS:
        totals = lambda r, n=layer.name: r["trace"]["layers"].get(n, [0, 0.0, 0.0])
        per_layer[f"{layer.name}.calls"] = totals(traced[0])[0]
        per_layer[f"{layer.name}.busy_s"] = median_of(lambda r: totals(r)[1])
        per_layer[f"{layer.name}.self_s"] = median_of(lambda r: totals(r)[2])
        per_layer[f"{layer.name}.share"] = median_of(
            lambda r: totals(r)[2] / r["trace"]["run_s"]
        )
    per_layer["setup.import_s"] = median_of(lambda r: r["import_s"])
    for phase in layers.SETUP_PHASES:
        per_layer[f"setup.{phase}_s"] = median_of(
            lambda r: r["trace"]["setup_phases"].get(phase, 0.0)
        )
    counters = traced[0]["counters"]
    for name, _, _ in layers.DIAGNOSTICS:
        per_layer[name] = counters.get(name, 0)
    per_layer["sim.calendar.ops"] = per_layer["sim.calendar.calls"]
    per_layer["sim.engine.round_ms_p50"] = statistics.median(
        r["round_ms_p50"] for r in plain
    )
    per_layer["sim.engine.round_ms_p95"] = statistics.median(
        r["round_ms_p95"] for r in plain
    )
    per_layer["trace.unattributed_share"] = per_layer["sim.engine.share"]
    per_layer["trace.overhead_share"] = (
        median_of(lambda r: r["run_s"]) / values["run_s"]["value"] - 1.0
    )
    per_layer["host.offcpu_share"] = statistics.median(offcpu)
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    summary["per_layer"] = {
        name: {"value": per_layer[name], "unit": unit}
        for name, unit in units.items()
    }
    return summary


def show(name: str, summary: dict) -> None:
    """Every metric by name with its unit, and every check by name."""
    print(f"== {name} ==")
    for metric, entry in summary["end_to_end"].items():
        line = f"  {metric:<24} {entry['value']:<22.10g} {entry['unit']}"
        if "q1" in entry:
            samples = " ".join(f"{s:.6g}" for s in entry["samples"])
            line += f"  [q1 {entry['q1']:.6g} q3 {entry['q3']:.6g}; {samples}]"
        print(line)
    for metric, entry in summary["per_layer"].items():
        print(f"  {metric:<40} {entry['value']:<22.10g} {entry['unit']}")
    for check, count in summary["checks"].items():
        state = "ok" if count["failed"] == 0 else f"FAILED {count['failed']}"
        print(f"  check {check:<30} {count['attempted']} attempted, {state}")
    for error in summary["errors"]:
        print(f"  repeat died: {error}")
    for warning in summary["warnings"]:
        print(f"  warning: {warning}")


def provenance(seed: int, summaries: Dict[str, dict]) -> dict:
    """What a comparison needs to know the two sides are alike."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    env = next((s["env"] for s in summaries.values() if "env" in s), {})
    return {
        "seed": seed,
        "git_revision": revision,  # None outside a git checkout
        "cpu_count": os.cpu_count(),
        **env,
        "workloads": {
            name: s.get("sizes", {}) for name, s in summaries.items()
        },
    }


# ----------------------------------------------------------------------
# the two sets of --selfcheck
# ----------------------------------------------------------------------
def compare(
    first: Dict[str, dict], second: Dict[str, dict], benchmark: dict
) -> int:
    """Table of differences between two sets of the same code; returns
    the number of breaches."""
    breaches = 0
    print(f"{'workload':<22} {'metric':<22} {'first':>14} {'second':>14} "
          f"{'rel diff':>10} {'bound':>8}")
    for name in first:
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            a = first[name]["end_to_end"][key]["value"]
            b = second[name]["end_to_end"][key]["value"]
            diff = abs(a - b) / abs(a)
            if key in EXACT:
                bound = EXACT_REL
            elif key == "ok_share":
                bound, diff = 0.0, max(1.0 - a, 1.0 - b)
            else:
                bound = metric["bound"]
            breach = diff > bound
            breaches += breach
            print(f"{name:<22} {key:<22} {a:>14.6g} {b:>14.6g} "
                  f"{diff:>10.4f} {bound:>8.2g}{'  BREACH' if breach else ''}")
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12,
                        help="measuring time per workload: one repeat per 4 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="whole-set mode: write the full result "
                        "(provenance, predictions, both sets) as JSON here")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"{ROOT / 'src' / 'repro'} is missing: the benchmark measures "
              f"the repro package of its own checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    repeats = max(1, args.seconds // int(RUN_FLOOR_S))

    if args.workload is not None:
        if args.workload not in workloads.BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; one of "
                         f"{', '.join(workloads.BY_NAME)}")
        if args.trace:
            untraced, traced = 1, max(1, repeats - 1)
        else:
            untraced, traced = repeats, 0
        started = time.perf_counter()
        records = run_set([args.workload], args.seed, untraced, traced,
                          args.smoke)[args.workload]
        summary = summarize(workloads.BY_NAME[args.workload], records, benchmark)
        show(args.workload, summary)
        wall = time.perf_counter() - started
        if wall > REPEAT_CAP_S * len(records) and not args.smoke:
            print(f"  warning: {wall:.1f} s for {len(records)} repeats, over "
                  f"the {REPEAT_CAP_S:.0f} s per repeat cap", flush=True)
        for key, value in provenance(args.seed, {args.workload: summary}).items():
            print(f"  provenance {key}: {json.dumps(value)}")
        metrics = summary["per_layer" if args.trace else "end_to_end"]
        if not metrics:
            print("no metrics: every repeat died or the target was never "
                  "crossed", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }))
        return 0

    names = list(workloads.BY_NAME)
    sets = []
    status = 0
    for _ in range(2 if args.selfcheck else 1):
        started = time.perf_counter()
        records = run_set(names, args.seed, repeats, 1, args.smoke)
        wall = time.perf_counter() - started
        summaries = {
            name: summarize(workloads.BY_NAME[name], records[name], benchmark)
            for name in names
        }
        for name, summary in summaries.items():
            show(name, summary)
            if summary["failed"] or not summary["per_layer"]:
                status = 1
            # Size guards fail the whole-set command (not the driver's
            # single-workload runs, which may land on a faster box).
            if summary["below_floor"]:
                status = 1
        cap = REPEAT_CAP_S * len(names) * (repeats + 1)
        print(f"whole set: {wall:.1f} s (cap {cap:.0f} s)")
        if not args.smoke and wall > cap:
            print("  size guard: over the time cap")
            status = 1
        sets.append(summaries)
    if args.selfcheck and status == 0:
        breaches = compare(sets[0], sets[1], benchmark)
        print(f"selfcheck: {breaches} breach(es)")
        status = 1 if breaches else 0
    if args.out:
        Path(args.out).write_text(json.dumps({
            "provenance": provenance(args.seed, sets[0]),
            "benchmark": benchmark,
            "predictions": layers.predictions(),
            "sets": sets,
        }, indent=1))
    print("RESULT", "ok" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
