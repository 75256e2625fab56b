"""The rule ``src/`` is held to: what stays is what something runs —
``repro.cli``, ``benchmarks/**``, an example (CI runs every one) or the
``from repro… import …`` lines of a CI workflow.

* **Modules.**  A module stays only while imports reach it from those
  roots.  A package ``__init__`` re-exporting a name is not a use of it:
  ``from repro.pkg import Name`` counts for the module that defines
  ``Name``; of what ``pkg/__init__.py`` imports, only what its own code
  goes on to use counts as well.  (``src/`` has no relative imports.)
* **Names.**  Every public top-level ``def`` / ``class`` of a ``src/``
  module, and every public method and property of a class, is used
  somewhere outside ``tests/`` and outside the statement that defines
  it: as a name, as an attribute, as an imported name (an ``__init__``'s
  re-export aside) or as a word of a string constant that is neither a
  docstring nor ``__all__`` (``getattr(obj, "name")``, the
  ``"module:Qual.name"`` entry points of ``benchmarks/e2e/layers.py``).
  The check goes by name, with no type inference: a method whose name is
  used anywhere counts as live, so it can miss dead code but never flags
  live code.
* **Re-exports.**  A name a package ``__init__`` imports from its own
  submodules is imported through the package path by a file outside the
  package (or a CI workflow), or used by the ``__init__``'s own code.
* **Imports.**  Every name a ``src/`` module imports is read by that
  module's code (or a string constant of it, as a quoted annotation is),
  so an import alone can keep no name alive.  A package ``__init__``'s
  imports are its re-exports, held by the rule above instead.

A failure names each offender as ``module:Qual.name``."""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# module:Qual.name -> why it stays although only tests call it.  Shared
# with tests/dynamic_surface.py, which fails on an entry a root calls.
ALLOWED = {
    "repro.nn.sharded:ShardedArena.peek": "reads a client's row without faulting it in, so tests check "
    "the resident / spilled / cold guarantee without moving the LRU order",
    "repro.sim.events:EventQueue.cancel": "the heap's cancel is the oracle tests/test_calendar_queue.py "
    "checks CalendarQueue.cancel against; the engine cancels on the calendar queue only",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CI_IMPORT = re.compile(r"^\s*from\s+([\w.]+)\s+import\s+([\w\s,]+?)\s*$", re.MULTILINE)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Tree:
    """The ``.py`` files of a checkout, split into ``src/`` and the
    non-test files that use it, plus the CI workflows' import lines."""

    def __init__(self, root: Path):
        self.src = root / "src"
        self.runners = [
            *root.glob("benchmarks/**/*.py"),
            *root.glob("examples/*.py"),
        ]
        self.sources = sorted(self.src.glob("**/*.py"))
        self.parsed = {path: ast.parse(path.read_text()) for path in [*self.sources, *self.runners]}
        self.ci_imports = [
            (module, name.strip())
            for workflow in sorted(root.glob(".github/workflows/*.yml"))
            for module, names in _CI_IMPORT.findall(workflow.read_text())
            for name in names.split(",")
            if name.strip()
        ]

    def module(self, path: Path) -> str:
        parts = path.relative_to(self.src).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    def file(self, module: str) -> Path | None:
        base = self.src.joinpath(*module.split("."))
        return next((p for p in (base.with_suffix(".py"), base / "__init__.py") if p.is_file()), None)


def _init_code_names(tree: ast.Module) -> set[str]:
    """The names a package ``__init__``'s own code reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _not_uses(tree: ast.Module) -> set[int]:
    """Ids of the string constants that are no use: docstrings and ``__all__``."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS))
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    all_values = {
        id(sub)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and target.id == "__all__"
        for sub in ast.walk(node.value)
    }
    return docstrings | all_values


def _uses(path: Path, tree: ast.Module):
    """``(word, enclosing definitions)`` per use in one non-test file."""
    skip = _not_uses(tree)
    init_names = _init_code_names(tree) if path.name == "__init__.py" else None

    def walk(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing + (id(node),)
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rsplit(".", 1)[-1]
                if init_names is None or (alias.asname or name) in init_names:
                    yield name, enclosing
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            for word in _WORD.findall(node.value):
                yield word, enclosing
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing)

    yield from walk(tree, ())


def _definitions(tree: Tree):
    """``(qualified name, def node)`` for every public top-level def /
    class and every public method or property, per ``src/`` module."""
    for path in tree.sources:
        module = tree.module(path)

        def visit(body, prefix):
            for node in body:
                if isinstance(node, _DEFS):
                    if not node.name.startswith("_"):
                        yield f"{module}:{prefix}{node.name}", node
                    if isinstance(node, ast.ClassDef):
                        yield from visit(node.body, f"{prefix}{node.name}.")

        yield from visit(tree.parsed[path].body, "")


def unused_names(root: Path) -> list[str]:
    """Public defs, classes and methods used by nothing but tests."""
    tree = Tree(root)
    uses: dict[str, list[tuple]] = {}
    for path, parsed in tree.parsed.items():
        for word, enclosing in _uses(path, parsed):
            uses.setdefault(word, []).append(enclosing)
    for _, name in tree.ci_imports:
        uses.setdefault(name, []).append(())
    return sorted(
        qual
        for qual, node in _definitions(tree)
        if all(id(node) in enclosing for enclosing in uses.get(node.name, ()))
    )


def unused_reexports(root: Path) -> list[str]:
    """Names an ``__init__`` imports from its own package that no file
    outside the package imports through it and its own code never reads."""
    tree = Tree(root)
    through_package: set[tuple[str, str]] = set(tree.ci_imports)
    for path, parsed in tree.parsed.items():
        here = tree.module(path) if path in tree.sources else None
        for node in ast.walk(parsed):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                if here is not None and (here == node.module or here.startswith(node.module + ".")):
                    continue  # inside the package it imports from
                through_package.update((node.module, alias.name) for alias in node.names)
    offenders = []
    for path in tree.sources:
        if path.name != "__init__.py":
            continue
        package, parsed = tree.module(path), tree.parsed[path]
        own = _init_code_names(parsed)
        for node in parsed.body:
            if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith(f"{package}."):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name.startswith("_") or name in own or (package, name) in through_package:
                    continue
                offenders.append(f"{package}:{name}")
    return sorted(offenders)


def unused_imports(root: Path) -> list[str]:
    """``module:name`` per name a non-``__init__`` ``src/`` module imports
    and never reads."""
    tree = Tree(root)
    offenders = []
    for path in tree.sources:
        if path.name == "__init__.py":
            continue
        parsed = tree.parsed[path]
        skip = _not_uses(parsed)
        read = {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
        read.update(
            word
            for node in ast.walk(parsed)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip
            for word in _WORD.findall(node.value)
        )
        for node in ast.walk(parsed):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        offenders.append(f"{tree.module(path)}:{name}")
    return sorted(offenders)


def test_every_module_is_reached_from_something_that_runs():
    tree = Tree(REPO)

    def imports(path: Path):
        parsed = tree.parsed[path]
        own = _init_code_names(parsed) if path.name == "__init__.py" else None
        for node in ast.walk(parsed):
            for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
                if own is not None and (alias.asname or alias.name) not in own:
                    continue
                yield (alias.name, None) if isinstance(node, ast.Import) else (node.module, alias.name)

    def defining_module(module: str, name: str | None) -> str | None:
        if name is not None and tree.file(f"{module}.{name}") is not None:
            return f"{module}.{name}"
        path = tree.file(module)
        if path is None or path.name != "__init__.py":
            return module if path is not None else None
        for node in ast.walk(tree.parsed[path]):
            if isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == name for a in node.names):
                return defining_module(node.module, name)
        return None

    reached = {"repro.cli", "repro.version"}  # the entry point; what pyproject.toml reads
    pending = [tree.file("repro.cli"), *tree.runners]
    edges = list(tree.ci_imports)
    while pending or edges:
        if pending:
            edges.extend(imports(pending.pop()))
            continue
        source, name = edges.pop()
        parts = source.split(".")
        found = {".".join(parts[:stop]) for stop in range(1, len(parts) + 1)}
        found.add(defining_module(source, name))
        for module in found - reached - {None} if parts[0] == "repro" else ():
            if tree.file(module) is not None:
                reached.add(module)
                pending.append(tree.file(module))
    modules = {tree.module(p) for p in tree.sources}
    unreached = sorted(m for m in modules - reached if tree.file(m).name != "__init__.py")
    assert not unreached, f"reached only from tests or through a re-export: {unreached}"


def test_every_public_name_and_method_is_used_outside_tests():
    unused = [name for name in unused_names(REPO) if name not in ALLOWED]
    assert not unused, "\n  ".join(["used only by tests (delete, or move under tests/):", *unused])


def test_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 3
    # A name mentioned outside tests passes this gate but may still never
    # run: tests/dynamic_surface.py judges those, so here an entry is
    # stale only when it is gone.
    stale = set(ALLOWED) - {qual for qual, _ in _definitions(Tree(REPO))}
    assert not stale, f"allowlisted but gone: {sorted(stale)}"


def test_every_import_is_read():
    unused = unused_imports(REPO)
    assert not unused, "\n  ".join(["imported, but never read by the module:", *unused])


def test_every_reexport_is_imported_through_its_package():
    unused = unused_reexports(REPO)
    assert not unused, "\n  ".join(["re-exported, but nothing outside the package imports it from there:", *unused])


def _write(root: Path, files: dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_gate_names_a_test_only_function_a_dead_method_and_a_test_only_reexport(tmp_path):
    _write(
        tmp_path,
        {
            "src/pkg/__init__.py": '''
                """Mentions only_tests and dead in a docstring, which is no use."""
                from pkg.mod import Widget, only_tests
                __all__ = ["Widget", "only_tests", "dead"]
            ''',
            "src/pkg/mod.py": '''
                import json

                def used():
                    return 1

                def only_tests():
                    """Calls itself, which is no use: only_tests()."""
                    return only_tests

                class Widget:
                    def live(self):
                        return used()

                    def dead(self):
                        """dead"""
                        return self.dead
            ''',
            "examples/run.py": '''
                from pkg import Widget
                Widget().live()
            ''',
            "tests/test_mod.py": '''
                from pkg import only_tests
                from pkg.mod import Widget
                only_tests(); Widget().dead()
            ''',
        },
    )
    assert unused_names(tmp_path) == ["pkg.mod:Widget.dead", "pkg.mod:only_tests"]
    assert unused_reexports(tmp_path) == ["pkg:only_tests"]
    assert unused_imports(tmp_path) == ["pkg.mod:json"]
