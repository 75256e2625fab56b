"""Calendar-queue event scheduler: bucketed time bins behind the
:class:`~repro.sim.events.EventQueue` API.

The binary-heap :class:`~repro.sim.events.EventQueue` pays ``O(log n)``
*Python-level list comparisons* per push and pop.  At a standing event
population of a few hundred thousand (a million-client sampled run keeps
one in-flight cycle per active participant plus the population model's
wake-ups) that is ~17 list comparisons per operation and the queue tops
out around 0.4M ev/s (the heap arm of ``event_throughput`` in
``benchmarks/bench_hot_paths.py``).

A calendar queue [Brown 1988] replaces the heap with timestamp buckets:

* ``push`` computes ``bucket = int(time // width)`` and appends — one
  float divide and a dict access, **no comparisons**;
* ``pop`` drains the earliest bucket in sorted order; sorting a bucket of
  ``m`` entries costs ``m log m`` comparisons *with timsort's constant*,
  so with the adaptive width keeping buckets small the per-event
  comparison count drops from ``log n`` to ``log m ≈ 2–4``.

Equivalence contract (property-tested against the heap oracle in
``tests/test_calendar_queue.py``):

* pop order is exactly ``(time, push-sequence)`` — ties at equal
  timestamps pop in push order, bit-for-bit the heap's order;
* :meth:`push` returns the same mutable ``[time, seq, action]`` handle
  and :meth:`cancel` tombstones it in place with identical idempotence
  semantics (a cancel after pop is a no-op);
* pushes *earlier* than previously popped times are honoured exactly like
  the heap honours them (the queue itself has no notion of "now" — the
  engine's :meth:`~repro.sim.events.EventEngine.schedule` enforces
  monotonicity, and the raw-queue benchmark deliberately pushes scrambled
  times).

:meth:`push_many` amortizes attribute lookups over a batch — the
per-round sampling storm of a sampled-participation run inserts hundreds
of events at once.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Tuple

#: Tombstone marking a cancelled entry.  Each queue class checks entries
#: only through its own methods, so the sentinel is module-private.
_CANCELLED = object()

#: Bucket sort key: the timestamp alone.  Entries at equal times always
#: share a bucket (equal time ⇒ equal key at any width) and every path
#: that adds to a bucket keeps equal-time entries in push order, so a
#: *stable* sort by time reproduces the heap's (time, seq) order with
#: float-only C comparisons instead of list comparisons.
_TIME = itemgetter(0)


class CalendarQueue:
    """Bucketed deterministic priority queue of ``(time, action)`` events.

    Drop-in replacement for :class:`~repro.sim.events.EventQueue`
    (``push`` / ``cancel`` / ``pop`` / ``peek_time`` / ``len`` / ``bool``)
    with identical observable behaviour and ``O(1)`` amortized push.
    """

    __slots__ = (
        "_width",
        "_buckets",
        "_keyheap",
        "_cur",
        "_cur_pos",
        "_cur_key",
        "_count",
        "_live",
        "_dead",
        "_high",
        "_low",
    )

    #: Rebuild thresholds: grow when live count doubles past ``_high``,
    #: shrink when it falls under ``_low`` — classic calendar-queue
    #: resizing, amortized O(1) per operation.
    _MIN_HIGH = 256

    def __init__(self, width: float = 1.0) -> None:
        if not (width > 0.0 and math.isfinite(width)):
            raise ValueError(f"bucket width must be finite and > 0, got {width}")
        self._width = float(width)
        self._buckets: dict = {}
        self._keyheap: List[int] = []
        #: The earliest bucket, sorted, drained through a cursor.
        self._cur: List[List] = []
        self._cur_pos = 0
        self._cur_key: Optional[int] = None
        self._count = 0
        self._live = 0
        self._dead = 0
        self._high = self._MIN_HIGH
        self._low = 0

    # ------------------------------------------------------------------
    # the EventQueue API
    # ------------------------------------------------------------------
    def push(self, time: float, action: Callable) -> List:
        time = float(time)
        if not (math.isfinite(time) and time >= 0.0):
            raise ValueError(f"event time must be finite and >= 0, got {time}")
        entry = [time, self._count, action]
        self._count += 1
        self._live += 1
        key = int(time // self._width)
        cur_key = self._cur_key
        if cur_key is not None and key <= cur_key:
            insort(self._cur, entry, lo=self._cur_pos, key=_TIME)
            return entry
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [entry]
            heapq.heappush(self._keyheap, key)
        else:
            bucket.append(entry)
        if self._live > self._high:
            self._rebuild()
        return entry

    def push_many(
        self, events: Iterable[Tuple[float, Callable]]
    ) -> List[List]:
        """Batched :meth:`push`; returns the handles in input order."""
        handles = []
        append_handle = handles.append
        count = self._count
        isfinite = math.isfinite
        width = self._width
        buckets = self._buckets
        keyheap = self._keyheap
        cur_key = self._cur_key
        for time, action in events:
            time = float(time)
            if not (isfinite(time) and time >= 0.0):
                raise ValueError(
                    f"event time must be finite and >= 0, got {time}"
                )
            entry = [time, count, action]
            count += 1
            append_handle(entry)
            key = int(time // width)
            if cur_key is not None and key <= cur_key:
                insort(self._cur, entry, lo=self._cur_pos, key=_TIME)
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
                heapq.heappush(keyheap, key)
            else:
                bucket.append(entry)
        self._count = count
        self._live += len(handles)
        if self._live > self._high:
            self._rebuild()
        return handles

    def cancel(self, entry: List) -> None:
        """Void a pushed event (idempotent); survivors keep their order."""
        if entry[2] is not _CANCELLED:
            entry[2] = _CANCELLED
            self._live -= 1
            self._dead += 1
            # Compaction: long fault-heavy runs cancel in bulk; rebuild
            # once tombstones dominate so buckets don't grow unboundedly.
            if self._dead > 64 and self._dead >= self._live:
                self._rebuild(width=self._width)

    def pop(self) -> Tuple[float, Callable]:
        while True:
            cur = self._cur
            pos = self._cur_pos
            end = len(cur)
            while pos < end:
                entry = cur[pos]
                pos += 1
                action = entry[2]
                if action is not _CANCELLED:
                    self._cur_pos = pos
                    # Tombstone the popped entry so a late cancel()
                    # against its handle is a harmless no-op.
                    entry[2] = _CANCELLED
                    self._live -= 1
                    if self._live < self._low:
                        self._rebuild()
                    return entry[0], action
                self._dead -= 1
            self._cur_pos = pos
            if not self._advance_bucket():
                raise IndexError("pop from an empty CalendarQueue")

    def peek_time(self) -> Optional[float]:
        while True:
            cur = self._cur
            pos = self._cur_pos
            end = len(cur)
            while pos < end:
                entry = cur[pos]
                if entry[2] is not _CANCELLED:
                    self._cur_pos = pos
                    return entry[0]
                pos += 1
                self._dead -= 1
            self._cur_pos = pos
            if not self._advance_bucket():
                return None

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    # A push lands in one of two places (inlined in push/push_many):
    # * the bucket being drained or an earlier one (key <= _cur_key):
    #   insort into the undrained tail — a stable by-time insertion point
    #   *after* equal times, which is exactly (time, seq) order since the
    #   new entry holds the highest seq.  Buckets before the current one
    #   are empty (it was the earliest when drawn, and every later push
    #   below it lands here), so the tail holds every entry keyed at or
    #   before _cur_key, in pop order;
    # * a later bucket: plain append (no comparisons at all).

    def _advance_bucket(self) -> bool:
        self._cur = []
        self._cur_pos = 0
        self._cur_key = None
        if not self._keyheap:
            return False
        key = heapq.heappop(self._keyheap)
        entries = self._buckets.pop(key)
        if len(entries) > 1:
            entries.sort(key=_TIME)
        self._cur = entries
        self._cur_key = key
        return True

    def _rebuild(self, width: Optional[float] = None) -> None:
        """Re-bucket every live entry (dropping tombstones) at a width
        matched to the current population — amortized O(1) per event."""
        entries: List[List] = []
        append = entries.append
        for i in range(self._cur_pos, len(self._cur)):
            e = self._cur[i]
            if e[2] is not _CANCELLED:
                append(e)
        for bucket in self._buckets.values():
            for e in bucket:
                if e[2] is not _CANCELLED:
                    append(e)
        if width is None:
            width = self._choose_width(entries)
        self._width = width
        self._buckets = {}
        self._keyheap = []
        self._cur = []
        self._cur_pos = 0
        self._cur_key = None
        self._dead = 0
        buckets = self._buckets
        keyheap = self._keyheap
        for e in entries:
            key = int(e[0] // width)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [e]
                heapq.heappush(keyheap, key)
            else:
                bucket.append(e)
        self._high = max(2 * self._live, self._MIN_HIGH)
        self._low = self._live // 4

    def _choose_width(self, entries: List[List]) -> float:
        """Width targeting a few live entries per bucket over the span of
        currently scheduled times.

        A near-term cluster denser than the global average simply lands
        in one oversized bucket — which the sorted-cursor drain plus the
        insort path for same-bucket pushes handles as a small sorted
        "near list" (the ladder-queue bottom rung), so skew degrades
        gracefully instead of needing per-region widths."""
        if len(entries) < 2:
            return self._width
        lo = min(e[0] for e in entries)
        hi = max(e[0] for e in entries)
        span = hi - lo
        if span <= 0.0:
            return self._width
        return max(span * 4.0 / len(entries), span * 1e-12, 1e-12)
