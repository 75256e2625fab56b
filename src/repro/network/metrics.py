"""Traffic and communication-time accounting.

The paper's Figs. 4-6 and Table IV plot *per-worker accumulated traffic*
(MB) and *communication time* (s).  The simulator attributes every payload
to its sender and receiver here, and models per-round time as the paper
does: synchronous rounds, so a round costs ``max over concurrent
transfers of bytes / link_bandwidth``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

MB = 1024.0 * 1024.0


class TrafficMeter:
    """Accumulates transfer totals and answers the paper's accounting
    queries.

    Nothing is kept per transfer: per-node sent/received sums, the two
    run totals and a count per distinct payload size are all any report
    reads, so memory does not grow with the length of a run.

    ``sender``/``receiver`` of ``-1`` denotes the central node (parameter
    server or coordinator), so centralized baselines share the same meter.
    """

    SERVER = -1

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers
        #: Bytes sent / received per node; the last slot is the server.
        self._sent = np.zeros(num_workers + 1, dtype=np.float64)
        self._received = np.zeros(num_workers + 1, dtype=np.float64)
        #: Run totals (``network.bytes_wire`` / ``network.transfers`` in
        #: :mod:`repro.obs` mirror them every round).
        self.total_bytes = 0
        self.num_transfers = 0
        #: ``{num_bytes: transfers of that size}`` — a run has a handful
        #: of distinct payload sizes.
        self.size_counts: Dict[int, int] = {}

    def _slot(self, node: int) -> int:
        if node == self.SERVER:
            return self.num_workers
        if not 0 <= node < self.num_workers:
            raise ValueError(f"node {node} out of range")
        return node

    def record(
        self, round_index: int, sender: int, receiver: int, num_bytes: int
    ) -> None:
        """Account one directed transfer of ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        self._sent[self._slot(sender)] += num_bytes
        self._received[self._slot(receiver)] += num_bytes
        self.total_bytes += num_bytes
        self.num_transfers += 1
        self.size_counts[num_bytes] = self.size_counts.get(num_bytes, 0) + 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def worker_bytes(self, worker: int) -> float:
        """Total bytes sent + received by one worker."""
        slot = self._slot(worker)
        return float(self._sent[slot] + self._received[slot])

    def mean_worker_traffic_mb(self) -> float:
        totals = self._sent[: self.num_workers] + self._received[: self.num_workers]
        return float(totals.mean()) / MB

    def server_traffic_mb(self) -> float:
        """Central-node accumulated traffic in MB (Table I server column)."""
        slot = self.num_workers
        return float(self._sent[slot] + self._received[slot]) / MB


class CommunicationTimer:
    """Synchronous-round communication-time model.

    Per round, callers report each concurrent transfer's
    ``(bytes, bandwidth_mb_per_s)``; the round's elapsed time is the
    maximum single-transfer duration (all transfers proceed in parallel,
    and the round barrier waits for the slowest — exactly the model behind
    the paper's Fig. 6).  Serial phases within a round (e.g. FedAvg's
    download-then-upload) can be accounted by calling
    :meth:`finish_round` per phase.  Per-endpoint link contention is the
    event engine's (:class:`repro.sim.events.EventEngine`).
    """

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.round_seconds: List[float] = []
        self._current: List[float] = []
        self._current_endpoints: List[Optional[Tuple]] = []
        self._last: Tuple[List[float], List[Optional[Tuple]]] = ([], [])

    @property
    def last_round_transfers(self) -> List[Tuple[float, float, Optional[Tuple]]]:
        """``(begin_s, end_s, endpoints)`` of every transfer of the most
        recently finished round/phase, relative to the phase start: the
        schedule :meth:`finish_round` timed, spelled out on demand (the
        round loop asks only when it keeps per-worker timelines)."""
        return [(0.0, duration, endpoints) for duration, endpoints in zip(*self._last)]

    def add_transfer(
        self,
        num_bytes: float,
        bandwidth_mb_per_s: float,
        endpoints: Optional[Tuple] = None,
    ) -> float:
        """Register one transfer in the current round; returns its duration.

        ``endpoints`` names the directional link ends this transfer
        occupies (any hashable keys), for the per-worker timeline.
        """
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        if bandwidth_mb_per_s <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bandwidth_mb_per_s}"
            )
        duration = (num_bytes / MB) / bandwidth_mb_per_s
        self._current.append(duration)
        self._current_endpoints.append(
            tuple(endpoints) if endpoints is not None else None
        )
        return duration

    @staticmethod
    def reserve_endpoints(
        start: float,
        duration: float,
        endpoints: Optional[Tuple],
        link_free: Dict,
    ) -> Tuple[float, float]:
        """Greedy in-order link reservation: the transfer begins once
        ``start`` is reached and every declared endpoint is free, then
        occupies all of them for ``duration``.  Returns ``(begin, end)``
        and advances ``link_free`` in place: the event engine's
        (:class:`repro.sim.events.EventEngine`) contention algorithm."""
        begin = start
        for endpoint in endpoints or ():
            begin = max(begin, link_free.get(endpoint, 0.0))
        end = begin + duration
        for endpoint in endpoints or ():
            link_free[endpoint] = end
        return begin, end

    def finish_round(self) -> float:
        """Close the round: elapsed = slowest concurrent transfer."""
        elapsed = max(self._current) if self._current else 0.0
        self._last = (self._current, self._current_endpoints)
        self.round_seconds.append(elapsed)
        self.total_seconds += elapsed
        self._current = []
        self._current_endpoints = []
        return elapsed


def utilized_bandwidth_per_round(
    matching: List[Tuple[int, int]], bandwidth: np.ndarray
) -> float:
    """Fig. 5's metric: the effective bandwidth of a round's matching.

    The round completes when the slowest matched pair finishes, so the
    round's utilized bandwidth is the *minimum* link speed over matched
    pairs.  Returns ``inf`` for an empty matching (no communication
    constraint).
    """
    if not matching:
        return float("inf")
    return float(min(bandwidth[i, j] for i, j in matching))
