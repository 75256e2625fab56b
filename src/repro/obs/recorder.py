"""Recorders: the object behind ``repro.obs.phase(...)`` and friends.

Two implementations share one duck type:

* :class:`NullRecorder` — the process default.  ``phase()`` hands back a
  single shared no-op context manager, so the disabled path allocates
  nothing and costs two empty method calls per span (the ``obs_overhead``
  bench gates this ≤ 2% of a fused n=1024 round).
* :class:`MetricsRecorder` — accumulates span times into a
  :class:`~repro.obs.registry.MetricsRegistry` and (optionally) emits
  wall-time lanes into a :class:`~repro.obs.trace.TraceRecorder`.

Span frames are pooled per thread on a free list, so steady-state
tracing allocates nothing either; each thread keeps its own span stack,
which makes nesting attribution correct under
``repro.utils.parallel`` pool dispatch (a block timed on a worker
thread nests under whatever that *thread* has open, never under another
thread's frame).  ``__exit__`` always runs, so spans balance under
exceptions; the stack unwind in :meth:`_PhaseFrame.__exit__` also
re-balances if an inner frame was somehow abandoned.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Optional

from repro.obs.registry import MetricsRegistry


class _NullSpan:
    """Shared, reusable no-op span (the entire disabled hot path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Default recorder: telemetry off, every operation a no-op."""

    enabled = False
    registry: Optional[MetricsRegistry] = None
    trace = None

    __slots__ = ()

    def phase(self, name: str) -> _NullSpan:
        return _NULL_SPAN


#: The process-default recorder instance (``repro.obs`` installs it).
NULL_RECORDER = NullRecorder()


class _PhaseFrame:
    """One pooled span.  Reused via the owning thread's free list."""

    __slots__ = ("recorder", "local", "name", "start", "child_s")

    def __init__(self, recorder: "MetricsRecorder", local) -> None:
        self.recorder = recorder
        self.local = local
        self.name = ""
        self.start = 0.0
        self.child_s = 0.0

    def __enter__(self) -> "_PhaseFrame":
        self.local.stack.append(self)
        self.child_s = 0.0
        # Last: the span excludes its own bookkeeping.
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        stack = self.local.stack
        # Re-balance: drop any abandoned inner frames, then ourselves.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        total = end - self.start
        self_s = total - self.child_s
        if self_s < 0.0:
            self_s = 0.0
        if stack:
            stack[-1].child_s += total
        recorder = self.recorder
        registry = recorder.registry
        name = self.name
        registry.inc(f"phase.{name}.total_s", total)
        registry.inc(f"phase.{name}.self_s", self_s)
        registry.inc(f"phase.{name}.count", 1.0)
        if recorder.trace is not None:
            recorder.trace.add_wall_span(name, self.start, total)
        self.local.free.append(self)
        return False


class MetricsRecorder:
    """Recorder that feeds a registry (and, optionally, a trace)."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self._local = threading.local()

    def _thread_state(self):
        local = self._local
        try:
            local.stack
        except AttributeError:
            local.stack = []
            local.free = []
        return local

    def phase(self, name: str) -> _PhaseFrame:
        """A context manager timing one named span on this thread."""
        local = self._thread_state()
        free = local.free
        frame = free.pop() if free else _PhaseFrame(self, local)
        frame.name = name
        return frame
