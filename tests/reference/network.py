"""Per-transfer accounting, kept as the oracle the array record is
checked against (``tests/test_network.py::TestArrayRecordEqualsPerTransfer``)
and as the independent accounting of the per-model reference loops
(``tests/reference/per_model.py``, ``tests/reference/replicas.py``).

``repro.network`` takes a synchronous round's transfers as arrays: one
``TrafficMeter.record_round`` and one ``CommunicationTimer.add_transfers``
per round.  Here each directed transfer is one call, as before:
:func:`send_bytes` meters it with ``TrafficMeter.record`` and times it in
:class:`CommunicationTimer`, which keeps a Python list of durations and
``(("tx", sender), ("rx", receiver))`` link-end keys per phase.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.network.metrics import MB


class CommunicationTimer:
    """The per-transfer round timer: elapsed = longest transfer."""

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.round_seconds: List[float] = []
        self._current: List[float] = []
        self._current_endpoints: List[Optional[Tuple]] = []
        self._last: Tuple[List[float], List[Optional[Tuple]]] = ([], [])

    @property
    def last_round_transfers(self) -> List[Tuple[float, float, Optional[Tuple]]]:
        """``(begin_s, end_s, endpoints)`` of every transfer of the last
        finished phase; ``endpoints`` is ``None`` for a collective."""
        return [(0.0, duration, endpoints) for duration, endpoints in zip(*self._last)]

    def add_transfer(
        self,
        num_bytes: float,
        bandwidth_mb_per_s: float,
        endpoints: Optional[Tuple] = None,
    ) -> float:
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        if bandwidth_mb_per_s <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_mb_per_s}")
        duration = (num_bytes / MB) / bandwidth_mb_per_s
        self._current.append(duration)
        self._current_endpoints.append(
            tuple(endpoints) if endpoints is not None else None
        )
        return duration

    def finish_round(self) -> float:
        elapsed = max(self._current) if self._current else 0.0
        self._last = (self._current, self._current_endpoints)
        self.round_seconds.append(elapsed)
        self.total_seconds += elapsed
        self._current = []
        self._current_endpoints = []
        return elapsed


def per_transfer(network):
    """``network`` with a fresh per-transfer :class:`CommunicationTimer`
    in place of its array timer (its meter's ``record`` is the
    per-transfer meter already); returns it."""
    network.timer = CommunicationTimer()
    return network


def send_bytes(network, round_index: int, sender: int, receiver: int, num_bytes: int) -> None:
    """One directed transfer on a :func:`per_transfer` network: metered at
    both ends, timed at its link where time is modelled."""
    network.meter.record(round_index, sender, receiver, num_bytes)
    link = network.link_bandwidth(sender, receiver)
    if link is not None:
        network.timer.add_transfer(
            num_bytes, link, endpoints=network.link_endpoints(sender, receiver)
        )
