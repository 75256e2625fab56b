"""The dynamic surface gate: every function ``src/`` defines is run, and
every keyword it takes is set, by something CI runs.

``tests/test_surface.py`` is static: a name that something *mentions*
passes it, called or not.  This gate runs every invocation in
:data:`ROOTS` under a call hook and names, as ``module:Qual.name``, each
function ``def`` of ``src/`` (methods and nested functions included) that
no root called, and as ``module:Qual.name(parameter)`` each parameter
with a literal default (``None``, bool, int, float or str) that no call
passed another value: one value in use is a constant.  Three parts:

* **The hook** (:data:`HOOK`): a ``sitecustomize`` written to a temporary
  directory that goes first on ``PYTHONPATH``, so every Python process a
  root starts, subprocesses included, records each code object it enters
  (``sys.settrace`` + ``threading.settrace``) and, at a call of a function
  whose defaults it is handed, each watched parameter that arrives with a
  value other than its default; it writes both out at exit.  A parameter
  leaves the watch the first time it is seen set, and later roots are
  handed only what no earlier root set.
* **The roots** (:data:`ROOTS`): the invocations the other CI jobs make,
  at their CI arguments (the golden registry's library rows among them),
  plus the runs that give a flag's path a root.
* **An AST pass** over ``src/`` (:func:`functions`, :func:`never_called`,
  :func:`never_set`).  Exempt are abstract stubs (``@abstractmethod``, or
  a body that only raises ``NotImplementedError``) and their parameters,
  the ``"module:Qual.name"`` entry points of ``benchmarks/e2e/layers.py``
  and the keywords spelled in ``benchmarks/e2e/`` (both frozen with the
  benchmark), ``tests/test_surface.ALLOWED`` and :data:`UNSET`.

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
rows share, in row order.  A parameter this names becomes a constant of
the code (with any branch only another value reached), is given a root
for a flag or a correctness path that reaches it, or, last, goes into
:data:`UNSET` with the reason it stays.
"""

from __future__ import annotations

import ast
import json
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
import atexit, json, os, sys, threading

_here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_here, "pending.json")) as _file:
    # "file\\tfirst line" -> {parameter: literal default} not yet seen set.
    _pending = json.load(_file)
_entered = {}
# id(code) -> ("file\\tfirst line", {parameter: default} still unseen set).
_watch = {}
# id(code) -> a generator's first-entry f_lasti.
_start = {}
_set = set()
_real = {}
_GENERATOR = 0x20 | 0x100 | 0x200


def _enter(frame, event, arg):
    code = frame.f_code
    key = id(code)
    if key not in _entered:
        _entered[key] = code
        path = _real.get(code.co_filename)
        if path is None:
            path = _real[code.co_filename] = os.path.realpath(code.co_filename)
        where = f"{path}\\t{code.co_firstlineno}"
        if where in _pending:
            _watch[key] = (where, dict(_pending[where]))
            if code.co_flags & _GENERATOR:
                # A generator's frame reports "call" again at each resume.
                _start[key] = frame.f_lasti
    watched = _watch.get(key)
    if watched is None or _start.get(key, frame.f_lasti) != frame.f_lasti:
        return
    where, defaults = watched
    local = frame.f_locals
    for name, default in list(defaults.items()):
        value = local.get(name, default)
        if value is default or (type(value) is type(default) and value == default):
            continue
        defaults.pop(name, None)
        _set.add(f"{where}\\t{name}")
    if not defaults:
        _watch.pop(key, None)


def _write():
    sys.settrace(None)
    threading.settrace(None)
    path = os.path.join(_here, f"calls-{os.getpid()}.txt")
    with open(path, "w") as out:
        for code in list(_entered.values()):
            out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
        for where in sorted(_set):
            out.write(f"{where}\\n")


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
#: The golden registry's library rows, which CI's ``regen HEAD`` runs.
_GOLDEN_LIBRARY = """
from tests.golden import ROWS, run_row
for name, (builder, _) in ROWS.items():
    if builder != "cli":
        run_row(name)
"""
#: ``bench_hot_paths --quick`` without its gate check.
_HOT_PATHS_QUICK = """
from benchmarks.bench_hot_paths import run_suite
run_suite(5)
"""


_KERNEL = ("the BatchedKernel protocol: the chain skips the input gradient only below its first "
           "layer, which is always a weight layer")
_SELECTOR = "the peer-selector protocol: only AdaptivePeerSelector's callers pass an active mask"
_SUITE = "set through SuiteSettings, which ROADMAP item 22 replaces"
_ISLAND = "a ROADMAP item 9 island: only its bench and tests run it"

#: ``module:Qual.name(parameter)`` -> why no root sets it.
UNSET = {
    **{f"repro.nn.batched:{kernel}.backward(need_input_grad)": _KERNEL
       for kernel in ("BatchedFlatten", "BatchedGlobalAvgPool2d", "BatchedMaxPool2d", "BatchedReLU")},
    "repro.core.gossip:RandomPeerSelector.select(active)": _SELECTOR,
    "repro.core.multipeer:MultiPeerSelector.select(active)": _SELECTOR,
    "repro.cli:main(argv)": "the console entry point reads sys.argv; tests pass argv",
    "repro.core.matching:greedy_weighted_matching(rng)": (
        "SampledSAPS's pairing calls it only when two sampled caps tie, which no seeded run draws"),
    "repro.nn.optim:SGD.__init__(nesterov)": "the golden rows set it as an attribute of built workers",
    **{f"repro.algorithms.fedavg:{family}.__init__({param})": _SUITE
       for family in ("FedAvg", "SparseFedAvg") for param in ("participation", "local_steps")},
    **{name: _ISLAND for name in (
        "repro.core.ring_opt:best_bottleneck_ring(max_nodes)",
        "repro.core.ring_opt:greedy_ring(start)",
        "repro.core.ring_opt:two_opt_ring(initial)",
        "repro.core.ring_opt:two_opt_ring(max_passes)",
        "repro.network.estimation:BandwidthEstimator.__init__(measurement_noise)",
        "repro.network.estimation:BandwidthEstimator.__init__(prior)",
        "repro.network.estimation:BandwidthEstimator.survey(pairs)",
        "repro.network.estimation:DriftingBandwidth.__init__(high)",
        "repro.network.estimation:DriftingBandwidth.__init__(low)",
        "repro.network.estimation:measure_bandwidth(noise)",
        "repro.core.multipeer:union_of_matchings(max_tries)",
    )},
}


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
    ("golden library rows", ("python", "-c", _GOLDEN_LIBRARY)),
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
    ("full resnet-20 float32", _repro("run", "--preset", "resnet-20", "--full-model", "--dtype", "float32",
                                      "--workers", "2", "--rounds", "1", "--samples-per-worker", "4",
                                      "--validation-samples", "4")),
    ("preset cifar10-cnn", _repro("run", "--preset", "cifar10-cnn", *_SMALL_RUN,
                                  "--samples-per-worker", "8", "--validation-samples", "8")),
    # One row per flag whose value reaches a parameter no run above sets.
    ("connectivity gap", _repro("run", *_SMALL_RUN, "--connectivity-gap", "2")),
    ("event local steps", _repro("run", "--engine", "event", "--workers", "5", "--sim-time", "2",
                                 "--local-steps", "2")),
    *[(f"{algorithm} sampled round duration",
       _repro("run", "--algorithm", algorithm, *_SMALL_RUN, "--participation", "sampled",
              "--sample-size", "3", "--population-model", "renewal:up=6,down=3",
              "--round-duration", "0.5"))
      for algorithm in ("fedavg", "s-fedavg")],
    ("dirichlet alpha", _repro("run", *_SMALL_RUN, "--non-iid", "--dirichlet-alpha", "2")),
    ("population seed", _repro("run", *_SMALL_RUN, "--population-model", "renewal:up=6,down=3",
                               "--seed", "3")),
    ("table1 compression", _repro("table1", "--compression", "50")),
    ("report title and target", _repro("report", "{tmp}/compare.json", "--title", "Small run",
                                       "--target", "0.5", "--target-fraction", "0.9")),
    ("compare local steps", _repro("compare", *_SMALL_RUN, "--local-steps", "2")),
]


def run(root: Path, roots) -> tuple[set, set, list]:
    """Run ``roots`` from ``root`` under the hook: ``(the (file, first
    line) of every code object entered, the (file, first line, parameter)
    of every literal-default parameter some call passed another value, the
    names of the roots that failed)``."""
    entered, given, failed = set(), set(), []
    pending = {}
    for _, where, _, defaults in functions(root):
        if defaults:
            pending[f"{where[0]}\t{where[1]}"] = defaults
    with tempfile.TemporaryDirectory() as tmp:
        hook = Path(tmp, "hook")
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (hook, root / "src", root)))}
        for name, argv in roots:
            # Later roots watch only what no earlier root set.
            (hook / "pending.json").write_text(json.dumps(pending))
            argv = [sys.executable if arg == "python" else arg.replace("{tmp}", tmp) for arg in argv]
            started = time.perf_counter()
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
            print(f"{time.perf_counter() - started:6.1f} s  exit {done.returncode}  {name}", flush=True)
            if done.returncode != 0:
                failed.append(name)
                print(textwrap.indent((done.stdout + done.stderr)[-3000:], "    | "))
            for calls in hook.glob("calls-*.txt"):
                for line in calls.read_text().splitlines():
                    path, first, *param = line.split("\t")
                    if param:
                        given.add((path, int(first), param[0]))
                        pending.get(f"{path}\t{first}", {}).pop(param[0], None)
                    else:
                        entered.add((os.path.realpath(path), int(first)))
                calls.unlink()
            pending = {where: defaults for where, defaults in pending.items() if defaults}
    return entered, given, failed


def _abstract(node: ast.FunctionDef) -> bool:
    if any(getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod" for d in node.decorator_list):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1 and isinstance(body[0], ast.Raise) and body[0].exc is not None
        and "NotImplementedError" in ast.unparse(body[0].exc)
    )


#: The default types the hook compares against.
_LITERALS = (type(None), bool, int, float, str)


def _literal_defaults(args: ast.arguments) -> dict:
    """``{parameter: default}`` for the parameters whose default is a
    ``None``, bool, int, float or str literal."""
    positional = [*args.posonlyargs, *args.args]
    pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
             *((arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default)]
    found = {}
    for arg, node in pairs:
        try:
            value = ast.literal_eval(node)
        except ValueError:
            continue
        if type(value) in _LITERALS:
            found[arg.arg] = value
    return found


def functions(root: Path):
    """``(module:Qual.name, (file, first line), abstract, literal
    defaults)`` for every function ``def`` under ``root / "src"``; the
    first line is the first decorator's, as in ``co_firstlineno``."""
    src = root / "src"
    for path in sorted(src.glob("**/*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        real = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    yield (f"{module}:{prefix}{child.name}", (real, first), _abstract(child),
                           _literal_defaults(child.args))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    yield from visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.stmt):
                    yield from visit(child, prefix)

        yield from visit(ast.parse(path.read_text()), "")


def never_called(root: Path, entered: set, exempt) -> list[str]:
    """The non-abstract functions of ``root``'s ``src/`` that no entered
    code object starts at, less ``exempt``."""
    return sorted(
        name for name, where, abstract, _ in functions(root)
        if not abstract and where not in entered and name not in exempt
    )


def never_set(root: Path, given: set, exempt) -> list[str]:
    """``module:Qual.name(parameter)`` for each literal-default parameter
    of a non-abstract ``src/`` function that no call passed another
    value, less ``exempt`` and the keywords the frozen benchmark spells
    (:func:`frozen_keywords`)."""
    frozen = frozen_keywords(root)
    unset = []
    for name, where, abstract, defaults in functions(root):
        if abstract:
            continue
        qual = name.split(":")[1].split(".")
        callee = qual[-2] if qual[-1] == "__init__" and len(qual) > 1 else qual[-1]
        unset.extend(
            f"{name}({param})" for param in defaults
            if (*where, param) not in given and (callee, param) not in frozen
            and f"{name}({param})" not in exempt
        )
    return sorted(unset)


def frozen_entry_points(root: Path) -> set[str]:
    """The ``"module:Qual.name"`` entry points of the frozen
    ``benchmarks/e2e/layers.py``."""
    layers = (root / "benchmarks/e2e/layers.py").read_text()
    return set(re.findall(r'"(repro\.[\w.]+:[\w.]+)"', layers))


def frozen_keywords(root: Path) -> set[tuple[str, str]]:
    """``(callee, keyword)`` per keyword argument spelled in the frozen
    ``benchmarks/e2e/``: ``EventEngine(..., scheduler="calendar")`` gives
    ``("EventEngine", "scheduler")``, which names ``EventEngine.__init__``."""
    return {
        (getattr(node.func, "id", getattr(node.func, "attr", None)), keyword.arg)
        for path in sorted((root / "benchmarks/e2e").glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    }


def main() -> int:
    started = time.perf_counter()
    entered, given, failed = run(REPO, ROOTS)
    dead = never_called(REPO, entered, frozen_entry_points(REPO) | set(ALLOWED))
    stale = sorted(set(ALLOWED) - set(never_called(REPO, entered, ())))
    unset = never_set(REPO, given, UNSET)
    stale_unset = sorted(set(UNSET) - set(never_set(REPO, given, ())))
    print(f"{len(ROOTS)} roots in {time.perf_counter() - started:.0f} s")
    for heading, names in (
        ("roots that failed:", failed),
        (f"{len(dead)} functions no root calls (delete, move under tests/, or give a root):", dead),
        ("allowlisted in tests/test_surface.py, but a root calls it or it is gone:", stale),
        (f"{len(unset)} parameters no root sets (make the default a constant, or give a root):", unset),
        ("listed in UNSET, but a root sets it or it is gone:", stale_unset),
    ):
        if names:
            print(heading, *names, sep="\n  ")
    return 1 if failed or dead or stale or unset or stale_unset else 0


if __name__ == "__main__":
    sys.exit(main())
