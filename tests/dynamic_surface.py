"""The dynamic surface gate: every function ``src/`` defines is run by
something CI runs.

``tests/test_surface.py`` is static: a name that something *mentions*
passes it, called or not.  This gate runs every invocation in
:data:`ROOTS` under a call hook and names, as ``module:Qual.name``, each
function ``def`` of ``src/`` (methods and nested functions included) that
no root called.  Three parts:

* **The hook** (:data:`HOOK`): a ``sitecustomize`` written to a temporary
  directory that goes first on ``PYTHONPATH``, so every Python process a
  root starts, subprocesses included, records each code object it enters
  (``sys.settrace`` + ``threading.settrace``) and writes them out at exit.
* **The roots** (:data:`ROOTS`): the invocations the other CI jobs make,
  at their CI arguments, plus the runs that give a flag's path a root.
* **An AST pass** over ``src/`` (:func:`never_called`).  Exempt are
  abstract stubs (``@abstractmethod``, or a body that only raises
  ``NotImplementedError``), the ``"module:Qual.name"`` entry points of
  ``benchmarks/e2e/layers.py`` (frozen with the benchmark) and
  ``tests/test_surface.ALLOWED``.

The hook slows everything it traces, so no root's timing is judged here:
a root passes when it exits 0, and ``bench_hot_paths`` runs its scenarios
without checking its ``GATES`` (the ``quick-benchmark`` job does that,
unprofiled).

Run from the repository root::

    python -m tests.dynamic_surface

A function this names is deleted, moved under ``tests/`` (when tests
compare against it), or given a root: one more ``(name, argv)`` row in
:data:`ROOTS` whose run reaches it.  ``argv`` starts with ``python``
(this interpreter) and may write to ``{tmp}``, a scratch directory the
rows share, in row order.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

from tests.test_surface import ALLOWED

REPO = Path(__file__).resolve().parents[1]

HOOK = '''
import atexit, os, sys, threading

_entered = {}


def _enter(frame, event, arg):
    code = frame.f_code
    if id(code) not in _entered:
        _entered[id(code)] = code


def _write():
    sys.settrace(None)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), f"calls-{os.getpid()}.txt")
    with open(path, "w") as out:
        for code in _entered.values():
            out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


atexit.register(_write)
sys.settrace(_enter)
threading.settrace(_enter)
'''

#: ``python -c`` bodies of the CI steps that run inline Python.
_LOAD_EVENT_OUTPUT = """
from repro.analysis.io import load_result
result = load_result("{tmp}/event.json")
last = result.history[-1]
assert last.time_s == last.comm_time_s + last.compute_time_s > 0
"""
_VALIDATE_TRACE = """
import json
from repro.obs import validate_trace
assert validate_trace(json.load(open("{tmp}/trace.json")))
"""
#: ``bench_hot_paths --quick`` without its gate check.
_HOT_PATHS_QUICK = """
from benchmarks.bench_hot_paths import run_suite
run_suite(5)
"""


def _repro(*argv: str) -> tuple:
    return ("python", "-m", "repro.cli", *argv)


def _golden_cli_rows() -> list:
    """The ``cli-*`` rows of the golden registry, which CI's ``regen HEAD``
    runs: ``repro run ARGV --output out.json``."""
    from tests.golden import CLI_CASES

    return [
        (f"golden cli-{name}", _repro("run", *argv.split(), "--output", "{tmp}/golden.json"))
        for name, argv in CLI_CASES.items()
    ]


_SMALL_RUN = ("--workers", "5", "--rounds", "6", "--eval-every", "3")

#: ``(name, argv)`` per root, run in order from the repository root.
ROOTS = [
    # examples-smoke: every example at its defaults, the golden CLI rows,
    # the reloaded event-engine output and quickstart's telemetry.
    *[(f"example {path.name}", ("python", f"examples/{path.name}"))
      for path in sorted((REPO / "examples").glob("*.py"))
      if path.name != "million_clients.py"],
    *_golden_cli_rows(),
    ("event output reload", _repro("run", "--algorithm", "psgd", "--engine", "event",
                                   "--workers", "4", "--rounds", "6", "--eval-every", "3",
                                   "--output", "{tmp}/event.json")),
    ("event output reload (load)", ("python", "-c", _LOAD_EVENT_OUTPUT)),
    ("quickstart telemetry", ("python", "examples/quickstart.py", "--trace-out", "{tmp}/trace.json",
                              "--metrics-out", "{tmp}/metrics.json")),
    ("quickstart telemetry (validate)", ("python", "-c", _VALIDATE_TRACE)),
    # fault-matrix-smoke, million-client-smoke, quick-benchmark,
    # paper-claims and e2e (at --smoke size: the same code paths).
    *[(f"fault smoke {family}", ("python", "benchmarks/fault_smoke.py", "--family", family))
      for family in ("sync-saps", "async-gossip", "async-fedavg", "async-dpsgd")],
    *[(f"million clients {family}", ("python", "examples/million_clients.py", "--family", family,
                                     "--clients", "50000", "--sim-time", "20"))
      for family in ("fedavg", "gossip")],
    ("hot paths --quick", ("python", "-c", _HOT_PATHS_QUICK)),
    ("paper claims", ("python", "-m", "pytest", "-q", "-p", "no:benchmark", "-p", "no:cacheprovider",
                      *sorted(f"benchmarks/{p.name}" for p in (REPO / "benchmarks").glob("bench_*.py")))),
    ("e2e smoke", ("python", "benchmarks/e2e/run.py", "--smoke", "--out", "{tmp}/e2e.json")),
    # The golden regen step and ab.py print the numerics key.
    ("numerics key", ("python", "-m", "repro.utils.numerics")),
    # The other subcommands, and inputs whose path no run above reaches.
    ("compare", _repro("compare", *_SMALL_RUN, "--output", "{tmp}/compare.json")),
    ("report", _repro("report", "{tmp}/compare.json", "--output", "{tmp}/report.md")),
    ("table1", _repro("table1")),
    ("rho", _repro("rho", "--workers", "6", "--rho-samples", "20")),
    ("metrics out", _repro("run", *_SMALL_RUN, "--obs", "metrics", "--metrics-out", "{tmp}/m.json")),
    ("non-iid", _repro("run", *_SMALL_RUN, "--non-iid")),
    ("event faults under obs", _repro("run", "--engine", "event", "--workers", "5", "--sim-time", "4",
                                      "--fault-plan", "crash:1@0.5,recover:1@2", "--obs", "metrics")),
    # Uploads that outlive --exchange-timeout run out of retries.
    ("fedavg upload give-up", _repro("run", "--algorithm", "fedavg", "--engine", "event", "--workers", "5",
                                     "--sim-time", "3", "--fault-plan", "crash:1@0.5,recover:1@2",
                                     "--exchange-timeout", "0.001", "--max-retries", "1")),
    # Evaluation batches spread over the pool need more than one batch.
    ("two pool threads", _repro("run", *_SMALL_RUN, "--num-threads", "2", "--validation-samples", "600")),
    *[(f"full {preset}", _repro("run", "--preset", preset, "--full-model", "--workers", "2",
                                "--samples-per-worker", "4", "--validation-samples", "4"))
      for preset in ("mnist-cnn", "cifar10-cnn")],
]


def run(root: Path, roots) -> tuple[set, list]:
    """Run ``roots`` from ``root`` under the hook: ``(the (file, first
    line) of every code object entered, the names of the roots that
    failed)``."""
    entered, failed = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        hook = Path(tmp, "hook")
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (hook, root / "src", root)))}
        for name, argv in roots:
            argv = [sys.executable if arg == "python" else arg.replace("{tmp}", tmp) for arg in argv]
            started = time.perf_counter()
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
            print(f"{time.perf_counter() - started:6.1f} s  exit {done.returncode}  {name}", flush=True)
            if done.returncode != 0:
                failed.append(name)
                print(textwrap.indent((done.stdout + done.stderr)[-3000:], "    | "))
        for calls in hook.glob("calls-*.txt"):
            for line in calls.read_text().splitlines():
                path, first = line.rsplit("\t", 1)
                entered.add((os.path.realpath(path), int(first)))
    return entered, failed


def _abstract(node: ast.FunctionDef) -> bool:
    if any(getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod" for d in node.decorator_list):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1 and isinstance(body[0], ast.Raise) and body[0].exc is not None
        and "NotImplementedError" in ast.unparse(body[0].exc)
    )


def functions(root: Path):
    """``(module:Qual.name, (file, first line), abstract)`` for every
    function ``def`` under ``root / "src"``; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    src = root / "src"
    for path in sorted(src.glob("**/*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        real = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    yield f"{module}:{prefix}{child.name}", (real, first), _abstract(child)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield from visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.stmt):
                    yield from visit(child, prefix)

        yield from visit(ast.parse(path.read_text()), "")


def never_called(root: Path, entered: set, exempt) -> list[str]:
    """The non-abstract functions of ``root``'s ``src/`` that no entered
    code object starts at, less ``exempt``."""
    return sorted(
        name for name, where, abstract in functions(root)
        if not abstract and where not in entered and name not in exempt
    )


def frozen_entry_points(root: Path) -> set[str]:
    """The ``"module:Qual.name"`` entry points of the frozen
    ``benchmarks/e2e/layers.py``."""
    layers = (root / "benchmarks/e2e/layers.py").read_text()
    return set(re.findall(r'"(repro\.[\w.]+:[\w.]+)"', layers))


def main() -> int:
    started = time.perf_counter()
    entered, failed = run(REPO, ROOTS)
    dead = never_called(REPO, entered, frozen_entry_points(REPO) | set(ALLOWED))
    stale = sorted(set(ALLOWED) - set(never_called(REPO, entered, ())))
    print(f"{len(ROOTS)} roots in {time.perf_counter() - started:.0f} s")
    for heading, names in (
        ("roots that failed:", failed),
        (f"{len(dead)} functions no root calls (delete, move under tests/, or give a root):", dead),
        ("allowlisted in tests/test_surface.py, but a root calls it or it is gone:", stale),
    ):
        if names:
            print(heading, *names, sep="\n  ")
    return 1 if failed or dead or stale else 0


if __name__ == "__main__":
    sys.exit(main())
