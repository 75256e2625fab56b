"""Outside-in span tracing for the end-to-end benchmark.

The benchmark wraps the public entry points of each ``repro`` layer from
its own side — ``repro.obs`` spans inside the program are a later issue —
with ``perf_counter`` spans ``(id, parent, layer, start, end)`` kept in
memory until the run ends.  A layer's *self* time is its spans' duration
minus the part their child spans cover; *busy* time is the time at least
one span of the layer is open (recursion is not double-counted).

Module-level functions are also rebound wherever another ``repro``
module imported them by name (``from repro.core.matching import
randomly_max_match``), and :meth:`Tracer.restore` puts every original
object back, so nothing leaks into a following repeat.

Single-threaded by construction: the benchmark pins
``REPRO_NUM_THREADS=1``, where ``repro.utils.parallel`` runs inline.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(id, parent id, layer, start, end)``; a root span's parent is ``-1``.
Span = Tuple[int, int, str, float, float]


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans and patches/unpatches the wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Closed spans, in closing order.
        self.spans: List[Span] = []
        self._ids = itertools.count()
        #: Ids of the open spans, innermost last, under a ``-1`` sentinel
        #: (the parent of a root span).
        self._open: List[int] = [-1]
        #: ``(layer, start)`` of the spans opened by hand.
        self._by_hand: List[Tuple[str, float]] = []
        #: ``(namespace, name, original)``; namespace is a module
        #: ``__dict__`` or the class that defines the method.
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, layer: str) -> None:
        """Open a span by hand (the benchmark's own root spans)."""
        self._open.append(next(self._ids))
        self._by_hand.append((layer, self.clock()))

    def end(self) -> None:
        end = self.clock()
        layer, start = self._by_hand.pop()
        sid = self._open.pop()
        self.spans.append((sid, self._open[-1], layer, start, end))

    @property
    def depth(self) -> int:
        """Number of spans open right now."""
        return len(self._open) - 1

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` with a span of ``layer`` around every call; the span
        closes when the call raises, too."""
        ids, open_, record, clock = self._ids, self._open, self.spans.append, self.clock

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1]
            open_.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                record((sid, parent, layer, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, namespace, name: str, value) -> None:
        if any(ns is namespace and n == name for ns, n, _ in self._patches):
            raise ValueError(f"{name} is already wrapped")
        if isinstance(namespace, dict):
            self._patches.append((namespace, name, namespace[name]))
            namespace[name] = value
        else:
            self._patches.append((namespace, name, vars(namespace)[name]))
            setattr(namespace, name, value)

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``"package.module:Qual.name"`` with ``make(original)``.

        A module-level function is rebound in every loaded ``repro``
        module whose globals hold the same object; a method is replaced
        on the class that defines it (naming a class that merely
        inherits it is an error — the table must say where code lives).
        """
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        *owners, name = qualname.split(".")
        if not owners:
            original = vars(module)[name]
            replacement = make(original)
            prefix = module_name.split(".")[0]
            for other_name, other in list(sys.modules.items()):
                if other is None or other_name.split(".")[0] != prefix:
                    continue
                namespace = vars(other)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(namespace, key, replacement)
            return
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        if name not in vars(owner):
            raise LookupError(f"{target}: {owner.__name__} does not define {name}")
        original = vars(owner)[name]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{target}: static/class methods are not wrapped")
        self._set(owner, name, make(original))

    def install(self, entry_points: Iterable[Tuple[str, str]]) -> None:
        """Wrap each ``(layer, target)`` with a plain span."""
        for layer, target in entry_points:
            self.patch(target, lambda fn, layer=layer: self.wrap(fn, layer))

    def restore(self) -> None:
        """Put every original object back."""
        for namespace, name, original in self._patches:
            if isinstance(namespace, dict):
                namespace[name] = original
            else:
                setattr(namespace, name, original)

    def leaked(self) -> List[str]:
        """Patched names that do not hold their original object (empty
        after :meth:`restore`, when nothing leaked)."""
        return [
            name
            for namespace, name, original in self._patches
            if (namespace if isinstance(namespace, dict) else vars(namespace))[name]
            is not original
        ]


def summarize(
    spans: Iterable[Span], since: float = float("-inf")
) -> Dict[str, LayerTotals]:
    """Per-layer calls / busy / self over the spans that start at or
    after ``since`` (the timed region's root opens there)."""
    ordered = sorted(s for s in spans if s[3] >= since)  # id = opening order
    child_s: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in ordered:
        child_s[parent] += end - start
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    open_layers: Dict[str, int] = defaultdict(int)
    stack: List[Tuple[int, str]] = []
    for sid, parent, layer, start, end in ordered:
        while stack and stack[-1][0] != parent:
            open_layers[stack.pop()[1]] -= 1
        entry = totals[layer]
        entry.calls += 1
        entry.self_s += (end - start) - child_s.get(sid, 0.0)
        if open_layers[layer] == 0:
            entry.busy_s += end - start
        stack.append((sid, layer))
        open_layers[layer] += 1
    return dict(totals)


def root_span(spans: Iterable[Span], layer: str) -> Optional[Span]:
    """The parentless span of ``layer`` (the benchmark opens one each for
    set-up and for the timed region)."""
    for span in spans:
        if span[1] == -1 and span[2] == layer:
            return span
    return None
