#!/usr/bin/env python3
"""Interleaved A/B of e2e workloads between two source trees.

    python3 benchmarks/ab.py BASE_TREE NEW_TREE [--workload saps32_cnn ...]
        [--pairs 4] [--seed 1] [--smoke] [--calls]

Each pair runs ``benchmarks/e2e/child.py`` once from each tree, in fresh
processes with ``run.py``'s pinned thread environment (one thread
everywhere, ``PYTHONHASHSEED=0``) and ``PYTHONDONTWRITEBYTECODE=1``; the
order alternates between pairs, so neither tree always runs on the
warmer box.  Bytecode caches are redirected to an empty directory, so
both trees compile from source as a fresh checkout does.  ``--workload``
takes one or more names, run one after the other.  Each gets a block:
every pair — ``run_s``, ``worker_steps_per_s``, ``setup_s``,
``peak_rss_mb``, the child's minor page faults and system CPU seconds
(``getrusage(RUSAGE_CHILDREN)`` deltas around it) and the trajectory
digest of each side — then the medians, the base tree's ``run_s``
quartiles and the median per-pair change.  One summary line per workload follows all the blocks, so "the
claimed workload moved, the others did not" is one command.  For
``run_s`` and ``worker_steps_per_s`` the line states the verdict of
the gain rule: the new tree's wins out of the pairs, the median gap
against the base runs' interquartile range, and ``GAIN`` only with at
least nine tenths of the pairs won and the gap wider than that range.
``--calls`` adds one untimed run per tree under ``cProfile`` and prints
each side's function-call count between the end of set-up and the end
of the run: a noise-free measure of per-event overhead where ``run_s``
spreads by several percent.  The summary line ends with ``counters
equal`` when every pair's exact-repeat counters (``network.*``,
``sim.events.*``, ``nn.sharded.*``: the children's ``counters``) agree,
else with each differing counter and both trees' values.  Exit status is
1 when any digest differs between the trees on any workload (or a run
dies); a counter difference alone does not fail it.

The header prints the numerics key the children run under
(``repro.utils.numerics``; both trees' children get one environment, so
one key): a digest holds only under its key.

Each tree needs its own ``benchmarks/e2e/child.py`` and ``src/``; the
trees may be the same directory (``--smoke`` against itself is how the
tier-1 suite checks this script).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

from child import THREAD_VARS  # noqa: E402
from repro.utils import numerics  # noqa: E402

CHILD_TIMEOUT_S = 120.0

#: ``python -c`` body of a ``--calls`` run: ``child.py``'s ``main`` with a
#: profiler switched on when the workload marks the end of set-up; the
#: call count is the last line of stdout.  ``argv``: the ``e2e`` directory,
#: then ``child.py``'s own arguments.
PROFILED_CHILD = """
import cProfile, pstats, sys
sys.path.insert(0, sys.argv.pop(1))
import child
profiler = cProfile.Profile()
run_begins = child.Marks.run_begins
def profiled(marks):
    run_begins(marks)
    profiler.enable()
child.Marks.run_begins = profiled
child.main()
profiler.disable()
print(pstats.Stats(profiler).total_calls)
"""


def child_env(tree: Path, pycache: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["PYTHONHASHSEED"] = "0"
    return env


def _last_line(tree: Path, workload: str, seed: int, smoke: bool,
               pycache: str, prefix: List[str], timeout: float) -> str:
    """Run ``child.py``'s arguments after ``prefix``; its last stdout line."""
    command = prefix + [
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        "--smoke", str(int(smoke)), "--spawned-at", repr(time.perf_counter()),
    ]
    done = subprocess.run(
        command, env=child_env(tree, pycache), cwd=tree, capture_output=True,
        text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{tree}: {workload} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return done.stdout.strip().splitlines()[-1]


def numerics_key(pycache: str) -> str:
    """The numerics key in the children's environment, read by this
    checkout's :mod:`repro.utils.numerics` (a tree may predate it)."""
    src = HERE.parent / "src"
    env = {**child_env(src.parent, pycache), "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", numerics.__name__], env=env, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    return done.stdout.strip() or numerics.UNKNOWN


def run_child(tree: Path, workload: str, seed: int, smoke: bool,
              pycache: str) -> dict:
    """The child's record, plus its ``minor_faults`` and ``sys_s``."""
    child = str(tree / "benchmarks" / "e2e" / "child.py")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = json.loads(_last_line(tree, workload, seed, smoke, pycache,
                                   [sys.executable, child], CHILD_TIMEOUT_S))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["minor_faults"] = after.ru_minflt - before.ru_minflt
    record["sys_s"] = after.ru_stime - before.ru_stime
    return record


def count_calls(tree: Path, workload: str, seed: int, smoke: bool,
                pycache: str) -> int:
    """Function calls of one untimed run under ``cProfile``."""
    prefix = [sys.executable, "-c", PROFILED_CHILD,
              str(tree / "benchmarks" / "e2e")]
    return int(_last_line(tree, workload, seed, smoke, pycache, prefix,
                          3 * CHILD_TIMEOUT_S))


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.3f}–{q3:.3f}"


def steps_per_s(record: dict) -> float:
    return record["steps"] / record["run_s"]


def verdict(base: List[float], new: List[float], lower_is_better: bool) -> str:
    """The gain rule: the new tree must win at least nine tenths of the
    pairs (ties count for neither) and the medians must differ, in its
    favour, by more than the base runs' interquartile range."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    gap = sign * (statistics.median(new) - statistics.median(base))
    iqr = float("nan")
    if len(base) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
        iqr = q3 - q1
    gain = wins >= 0.9 * len(base) and gap > iqr
    return (f"new better in {wins}/{len(base)}, median gap {gap:+.4g}, "
            f"base IQR {iqr:.4g}: {'GAIN' if gain else 'no gain'}")


def run_workload(trees: Dict[str, Path], workload: str, args,
                 pycache: str) -> Tuple[str, int]:
    """Run and print one workload's block; returns its summary line and
    the number of pairs whose digests differ."""
    runs: Dict[str, List[dict]] = {"base": [], "new": []}
    mismatches = 0
    print(f"{workload}, seed {args.seed}, {args.pairs} pair(s)"
          f"{', smoke' if args.smoke else ''}")
    print(f"  base: {trees['base']}\n  new:  {trees['new']}")
    print(f"{'pair':>4} {'first':>5} {'base run_s':>10} {'new run_s':>10} "
          f"{'change':>8} {'base steps/s':>12} {'new steps/s':>12} "
          f"{'base setup':>10} {'new setup':>10} {'base rss':>9} "
          f"{'new rss':>9} {'base faults':>11} {'new faults':>11} "
          f"{'base sys':>8} {'new sys':>8} {'base digest':>12} "
          f"{'new digest':>12}")
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        record = {}
        for side in order:
            record[side] = run_child(
                trees[side], workload, args.seed, args.smoke, pycache
            )
            runs[side].append(record[side])
        base, new = record["base"], record["new"]
        same = base["digest"] == new["digest"]
        mismatches += not same
        change = new["run_s"] / base["run_s"] - 1.0
        print(f"{pair + 1:>4} {order[0]:>5} {base['run_s']:>10.3f} "
              f"{new['run_s']:>10.3f} {change:>+8.1%} "
              f"{steps_per_s(base):>12.1f} {steps_per_s(new):>12.1f} "
              f"{base['setup_s']:>10.3f} {new['setup_s']:>10.3f} "
              f"{base['peak_rss_mb']:>9.1f} {new['peak_rss_mb']:>9.1f} "
              f"{base['minor_faults']:>11} {new['minor_faults']:>11} "
              f"{base['sys_s']:>8.3f} {new['sys_s']:>8.3f} "
              f"{base['digest'][:12]:>12} {new['digest'][:12]:>12}"
              f"{'' if same else '  DIGEST DIFFERS'}")

    def series(side: str, metric) -> List[float]:
        return [metric(r) for r in runs[side]]

    metrics = {
        "run_s": lambda r: r["run_s"],
        "worker_steps_per_s": steps_per_s,
        "setup_s": lambda r: r["setup_s"],
        "peak_rss_mb": lambda r: r["peak_rss_mb"],
        "minor_faults": lambda r: r["minor_faults"],
        "sys_s": lambda r: r["sys_s"],
    }
    medians = {
        (side, name): statistics.median(series(side, metric))
        for side in ("base", "new") for name, metric in metrics.items()
    }
    for side in ("base", "new"):
        print(f"{side:>4}: run_s median {medians[side, 'run_s']:.3f} "
              f"(q1–q3 {quartiles(series(side, metrics['run_s']))}), "
              f"worker_steps_per_s median "
              f"{medians[side, 'worker_steps_per_s']:.1f}, setup_s median "
              f"{medians[side, 'setup_s']:.3f}, peak_rss_mb median "
              f"{medians[side, 'peak_rss_mb']:.1f}, minor_faults median "
              f"{medians[side, 'minor_faults']:.0f}, sys_s median "
              f"{medians[side, 'sys_s']:.3f}")
    changes = [
        n["run_s"] / b["run_s"] - 1.0 for b, n in zip(runs["base"], runs["new"])
    ]
    faster = sum(change < 0 for change in changes)
    change = statistics.median(changes)
    digests = (f"DIGEST DIFFERS in {mismatches} pair(s)" if mismatches
               else "digests equal")
    differing: Dict[str, str] = {}
    for b, n in zip(runs["base"], runs["new"]):
        for name in sorted(b["counters"].keys() | n["counters"].keys()):
            old, now = b["counters"].get(name), n["counters"].get(name)
            if old != now:
                differing.setdefault(name, f"{name} {old} -> {now}")
    counters = ("counters differ: " + ", ".join(differing.values())
                if differing else "counters equal")
    print(f"run_s change per pair: median {change:+.1%}, "
          f"new faster in {faster}/{len(changes)} pairs; {digests}")
    calls = ""
    if args.calls:
        base_calls, new_calls = (
            count_calls(trees[side], workload, args.seed, args.smoke, pycache)
            for side in ("base", "new")
        )
        calls = (f", calls {base_calls} -> {new_calls} "
                 f"({new_calls / base_calls - 1.0:+.2%})")
        print(f"calls under cProfile: base {base_calls}, new {new_calls}")
    print()
    run_s = verdict(series("base", metrics["run_s"]),
                    series("new", metrics["run_s"]), lower_is_better=True)
    steps = verdict(series("base", steps_per_s), series("new", steps_per_s),
                    lower_is_better=False)
    summary = (
        f"{workload}: run_s {medians['base', 'run_s']:.3f} -> "
        f"{medians['new', 'run_s']:.3f} s (per pair {change:+.1%}; {run_s}), "
        f"worker_steps_per_s {medians['base', 'worker_steps_per_s']:.1f} -> "
        f"{medians['new', 'worker_steps_per_s']:.1f} ({steps}), "
        f"setup_s {medians['base', 'setup_s']:.3f} -> "
        f"{medians['new', 'setup_s']:.3f}, peak_rss_mb "
        f"{medians['base', 'peak_rss_mb']:.1f} -> "
        f"{medians['new', 'peak_rss_mb']:.1f}, minor_faults "
        f"{medians['base', 'minor_faults']:.0f} -> "
        f"{medians['new', 'minor_faults']:.0f}, sys_s "
        f"{medians['base', 'sys_s']:.3f} -> "
        f"{medians['new', 'sys_s']:.3f}{calls}, {digests}, {counters}"
    )
    return summary, mismatches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="tree measured as the baseline")
    parser.add_argument("new", type=Path, help="tree measured against it")
    parser.add_argument("--workload", nargs="+", default=["saps32_cnn"])
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workloads (checks the plumbing, not speed)")
    parser.add_argument("--calls", action="store_true",
                        help="also count each tree's function calls under "
                             "cProfile in one untimed run per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "new": args.new.resolve()}
    for tree in trees.values():
        if not (tree / "benchmarks" / "e2e" / "child.py").is_file():
            parser.error(f"{tree} has no benchmarks/e2e/child.py")

    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as pycache:
        print(f"numerics key (base and new): {numerics_key(pycache)}\n")
        results = [
            run_workload(trees, workload, args, pycache)
            for workload in args.workload
        ]
    print("summary:")
    for summary, _ in results:
        print(f"  {summary}")
    failed = sum(mismatches > 0 for _, mismatches in results)
    if failed:
        print(f"FAILED: digest differs on {failed} workload(s)")
        return 1
    print("digests equal in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
