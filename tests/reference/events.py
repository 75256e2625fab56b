"""The binary-heap event queue the event engine ran before its calendar
queue.  Kept verbatim as the pop-order oracle that
:class:`repro.sim.calendar.CalendarQueue` is checked against
(``tests/test_calendar_queue.py``, ``tests/test_events.py``) and as the
baseline arm of ``event_throughput`` in ``benchmarks/bench_hot_paths.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Tombstone marking a cancelled queue entry (``None`` stays a valid
#: action payload).
_CANCELLED = object()


class EventQueue:
    """Deterministic priority queue of ``(time, action)`` events.

    Events at equal times pop in push order (a monotone sequence number
    breaks ties), so processing order never depends on heap internals.

    :meth:`push` returns a handle that :meth:`cancel` turns into a
    no-op in place.  Cancellation never touches the heap structure, so
    the pop order of surviving events is exactly what it would have
    been.
    """

    __slots__ = ("_heap", "_count", "_live")

    def __init__(self) -> None:
        # Entries are mutable [time, seq, action] lists; a cancelled
        # entry keeps its heap position with action = _CANCELLED.
        self._heap: List[List] = []
        self._count = 0
        self._live = 0

    def push(self, time: float, action: Callable) -> List:
        time = float(time)
        if not np.isfinite(time) or time < 0.0:
            raise ValueError(f"event time must be finite and >= 0, got {time}")
        entry = [time, self._count, action]
        heapq.heappush(self._heap, entry)
        self._count += 1
        self._live += 1
        return entry

    def push_many(self, events) -> List[List]:
        """Batched :meth:`push`; returns the handles in input order (for
        the heap it is just the loop)."""
        return [self.push(time, action) for time, action in events]

    #: Compaction floor: below this heap size the tombstone overhead is
    #: noise and rebuilding would only churn allocations.
    _COMPACT_MIN = 64

    def cancel(self, entry: List) -> None:
        """Void a pushed event (idempotent); survivors keep their order.

        When tombstones outnumber live entries the heap is rebuilt from
        the survivors in place, so its size tracks the live population
        instead of growing unboundedly.  Pop order is untouched: it is
        the total order by ``(time, seq)``, which does not depend on the
        heap's internal layout.
        """
        if entry[2] is not _CANCELLED:
            entry[2] = _CANCELLED
            self._live -= 1
            heap = self._heap
            if len(heap) > self._COMPACT_MIN and self._live < len(heap) // 2:
                self._heap = [e for e in heap if e[2] is not _CANCELLED]
                heapq.heapify(self._heap)

    def pop(self) -> Tuple[float, Callable]:
        while True:
            entry = heapq.heappop(self._heap)
            time, _, action = entry
            if action is not _CANCELLED:
                # Tombstone the popped entry so a late cancel() against
                # its handle is a harmless no-op.
                entry[2] = _CANCELLED
                self._live -= 1
                return time, action

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0][2] is _CANCELLED:
            heapq.heappop(heap)  # drop cancelled entries lazily
        return heap[0][0] if heap else None

    def __bool__(self) -> bool:
        return self._live > 0
