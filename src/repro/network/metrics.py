"""Traffic and communication-time accounting.

The paper's Figs. 4-6 and Table IV plot *per-worker accumulated traffic*
(MB) and *communication time* (s).  The simulator attributes every
transfer to its sender and receiver here, and models per-round time as
the paper does: synchronous rounds, so a round costs ``max over
concurrent transfers of bytes / link_bandwidth``.  A synchronous round
hands over its transfers as arrays (senders, receivers, bytes), one call
per round; the event engine meters one transfer at a time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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

    def record_round(
        self, senders: np.ndarray, receivers: np.ndarray, num_bytes: np.ndarray
    ) -> None:
        """Account a round's directed transfers ``senders[i] →
        receivers[i]`` of ``num_bytes[i]`` each: what :meth:`record` does
        per transfer, as array operations over the round."""
        if (num_bytes < 0).any():
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes.min()}")
        nodes = np.concatenate([senders, receivers])
        bad = (nodes < self.SERVER) | (nodes >= self.num_workers)
        if bad.any():
            raise ValueError(f"node {nodes[bad][0]} out of range")
        # The server's -1 lands in the last slot.
        slots = self.num_workers + 1
        self._sent += np.bincount(senders % slots, num_bytes, slots)
        self._received += np.bincount(receivers % slots, num_bytes, slots)
        self.total_bytes += int(num_bytes.sum())
        self.num_transfers += int(num_bytes.size)
        sizes, counts = np.unique(num_bytes, return_counts=True)
        for size, count in zip(sizes.tolist(), counts.tolist()):
            self.size_counts[size] = self.size_counts.get(size, 0) + count

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

    Per round, callers report the concurrent transfers: a round's linked
    transfers as arrays through :meth:`add_transfers`, or one collective
    (an all-reduce, an allgather, a server batch) through
    :meth:`add_transfer`.  A transfer lasts ``(bytes / MB) / bandwidth``
    seconds, and the round's elapsed time is the longest one (all
    transfers proceed in parallel, and the round barrier waits for the
    slowest — exactly the model behind the paper's Fig. 6).  Serial
    phases within a round (e.g. FedAvg's download-then-upload) can be
    accounted by calling :meth:`finish_round` per phase.  Per-endpoint
    link contention is the event engine's
    (:class:`repro.sim.events.EventEngine`).
    """

    #: Sender / receiver of a collective transfer: it names no link ends
    #: and occupies every participant.
    COLLECTIVE = -2

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.round_seconds: List[float] = []
        #: The open phase's ``(durations, senders, receivers)`` chunks.
        self._current: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._last: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def last_round_transfers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(durations, senders, receivers)`` of every transfer of the
        most recently finished round/phase, in the order they were
        added; each began at the phase start.  Built when read (the
        round loop asks only when it keeps per-worker timelines)."""
        empty = (np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64))
        return tuple(np.concatenate(column) for column in zip(empty, *self._last))

    def add_transfer(self, num_bytes: float, bandwidth_mb_per_s: float) -> float:
        """Register one collective transfer in the current round; returns
        its duration (0 for no bytes)."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_bytes == 0:
            return 0.0
        if bandwidth_mb_per_s <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bandwidth_mb_per_s}"
            )
        duration = (num_bytes / MB) / bandwidth_mb_per_s
        ends = np.array([self.COLLECTIVE])
        self._current.append((np.array([duration]), ends, ends))
        return duration

    def add_transfers(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        num_bytes: np.ndarray,
        bandwidth_mb_per_s: np.ndarray,
    ) -> None:
        """Register a round's linked transfers ``senders[i] →
        receivers[i]`` of ``num_bytes[i]`` over a link of
        ``bandwidth_mb_per_s[i]``.  Zero-byte transfers take no time; a
        transfer with bytes over a link that is not positive raises,
        naming its ends and ``round_index``."""
        sent = num_bytes > 0
        dead = sent & ~(bandwidth_mb_per_s > 0)
        if dead.any():
            i = np.flatnonzero(dead)[0]
            raise ValueError(
                f"round {round_index}: worker {senders[i]} -> worker "
                f"{receivers[i]} has no link (bandwidth "
                f"{bandwidth_mb_per_s[i]} MB/s)"
            )
        durations = (num_bytes[sent] / MB) / bandwidth_mb_per_s[sent]
        self._current.append((durations, senders[sent], receivers[sent]))

    def finish_round(self) -> float:
        """Close the round: elapsed = slowest concurrent transfer."""
        elapsed = max(
            (float(chunk.max()) for chunk, _, _ in self._current if chunk.size),
            default=0.0,
        )
        self._last = self._current
        self.round_seconds.append(elapsed)
        self.total_seconds += elapsed
        self._current = []
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
    pairs = np.asarray(matching, dtype=np.intp).reshape(-1, 2)
    return float(bandwidth[pairs[:, 0], pairs[:, 1]].min(initial=np.inf))
