"""The rule ``src/`` is held to: a module stays only while imports reach it
from something that runs — ``repro.cli``, ``benchmarks/**`` or an example
(CI runs every one).  A package ``__init__`` re-exporting a name is not a
use of it: ``from repro.pkg import Name`` counts for the module that
defines ``Name``; of what ``pkg/__init__.py`` imports, only what its own
code goes on to use counts as well.  (``src/`` has no relative imports.)"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def _file(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    return next((p for p in (base.with_suffix(".py"), base / "__init__.py") if p.is_file()), None)


def _imports(path: Path):
    """``(module, name or None)`` per import in ``path``, function-level
    ones included; an ``__init__``'s re-exports left out."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
            if path.name == "__init__.py" and (alias.asname or alias.name) not in used:
                continue
            yield (alias.name, None) if isinstance(node, ast.Import) else (node.module, alias.name)


def _defining_module(module: str, name: str | None) -> str | None:
    """The module defining ``name``, through ``__init__`` re-exports (or None)."""
    if name is not None and _file(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = _file(module)
    if path is None or path.name != "__init__.py":
        return module if path is not None else None
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == name for a in node.names):
            return _defining_module(node.module, name)
    return None


def test_every_module_is_reached_from_something_that_runs():
    reached = {"repro.cli", "repro.version"}  # the entry point; what pyproject.toml reads
    pending = [_file("repro.cli"), *REPO.glob("benchmarks/**/*.py"), *REPO.glob("examples/*.py")]
    while pending:
        for source, name in _imports(pending.pop()):
            parts = source.split(".")
            found = {".".join(parts[:stop]) for stop in range(1, len(parts) + 1)} | {_defining_module(source, name)}
            for module in found - reached - {None} if parts[0] == "repro" else ():
                if _file(module) is not None:
                    reached.add(module)
                    pending.append(_file(module))
    modules = {".".join(p.relative_to(SRC).with_suffix("").parts) for p in SRC.glob("repro/**/*.py")}
    unreached = sorted(m for m in modules - reached if not m.endswith("__init__"))
    assert not unreached, f"reached only from tests or through a re-export: {unreached}"
