"""Traffic breakdowns: where the bytes go.

Table I gives totals; this module decomposes a run's measured traffic by
direction and endpoint so the mechanisms are visible:

* per-worker up vs down bytes;
* worker↔worker vs worker↔server split;
* payload-size histogram (values-only shared-mask payloads vs
  index-carrying ones show up as distinct modes);
* Gini-style imbalance across workers (centralized schemes concentrate
  load, decentralized ones spread it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.network.metrics import MB, TrafficMeter


@dataclass
class TrafficBreakdown:
    """Decomposed totals of one run (all in MB)."""

    worker_up: np.ndarray  # bytes sent per worker, MB
    worker_down: np.ndarray  # bytes received per worker, MB
    peer_to_peer_mb: float
    worker_to_server_mb: float
    server_to_worker_mb: float
    num_transfers: int

    def imbalance(self) -> float:
        """Max/mean per-worker total — 1.0 is perfectly balanced."""
        totals = self.worker_up + self.worker_down
        mean = totals.mean()
        if mean == 0:
            return 1.0
        return float(totals.max() / mean)


def breakdown_traffic(meter: TrafficMeter) -> TrafficBreakdown:
    """Decompose a :class:`TrafficMeter`'s per-node totals."""
    n = meter.num_workers
    sent, received = meter._sent, meter._received
    server_to_worker = float(sent[n])
    worker_to_server = float(received[n])
    peer_to_peer = meter.total_bytes - server_to_worker - worker_to_server
    return TrafficBreakdown(
        worker_up=sent[:n] / MB,
        worker_down=received[:n] / MB,
        peer_to_peer_mb=peer_to_peer / MB,
        worker_to_server_mb=worker_to_server / MB,
        server_to_worker_mb=server_to_worker / MB,
        num_transfers=meter.num_transfers,
    )


def payload_size_histogram(meter: TrafficMeter) -> Dict[str, List]:
    """Histogram of per-transfer sizes (bytes), eight log-spaced bins."""
    tally = {n: count for n, count in meter.size_counts.items() if n > 0}
    if not tally:
        return {"edges": [], "counts": []}
    sizes = np.array(list(tally))
    counts = np.array(list(tally.values()))
    low, high = sizes.min(), sizes.max()
    if low == high:
        return {
            "edges": [float(low), float(high)], "counts": [int(counts.sum())]
        }
    edges = np.logspace(np.log10(low), np.log10(high), 9)
    counts, _ = np.histogram(sizes, bins=edges, weights=counts)
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def compare_breakdowns(
    breakdowns: Dict[str, TrafficBreakdown]
) -> List[List]:
    """Rows for ``render_table``: one row per algorithm."""
    rows = []
    for name, b in breakdowns.items():
        rows.append(
            [
                name,
                round(b.peer_to_peer_mb, 4),
                round(b.worker_to_server_mb + b.server_to_worker_mb, 4),
                round(float((b.worker_up + b.worker_down).mean()), 4),
                round(b.imbalance(), 3),
            ]
        )
    return rows
