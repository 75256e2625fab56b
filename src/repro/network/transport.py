"""Simulated transport: couples a bandwidth matrix with traffic/time meters.

:class:`SimulatedNetwork` is what the algorithms talk to.  It does not
move data (the in-process simulator hands payload objects around
directly); it *accounts* — bytes per endpoint and synchronous-round time —
so every experiment gets Figs. 4-6 numbers for free.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.compression.base import Payload
from repro.network.metrics import MB, CommunicationTimer, TrafficMeter
from repro.utils.validation import check_positive, check_square


class SimulatedNetwork:
    """Byte/time accounting over a (possibly absent) bandwidth matrix.

    Parameters
    ----------
    num_workers:
        Worker count ``n``.
    bandwidth:
        Symmetric ``(n, n)`` MB/s matrix, or ``None`` to skip time
        accounting (traffic-only experiments, like Fig. 3/4).  Entries
        are non-negative; 0 means "no link".
    server_bandwidth:
        Link speed between the central node and any worker, used by the
        centralized baselines.  The paper's Fig. 6 setup gives the server
        "the maximum bandwidth"; pass that value here.
    """

    def __init__(
        self,
        num_workers: int,
        bandwidth: Optional[np.ndarray] = None,
        server_bandwidth: Optional[float] = None,
    ) -> None:
        self.num_workers = num_workers
        if bandwidth is not None:
            bandwidth = check_square(np.asarray(bandwidth, dtype=np.float64))
            if bandwidth.shape[0] != num_workers:
                raise ValueError(
                    f"bandwidth matrix is {bandwidth.shape[0]}x"
                    f"{bandwidth.shape[0]} but num_workers={num_workers}"
                )
            bad = np.argwhere(~(bandwidth >= 0))  # NaN or negative
            if bad.size:
                i, j = bad[0]
                raise ValueError(
                    f"bandwidth[{i}, {j}] must be a non-negative number of "
                    f"MB/s (0 = no link), got {bandwidth[i, j]}"
                )
        if server_bandwidth is not None:
            check_positive(server_bandwidth, "server_bandwidth")
        self.bandwidth = bandwidth
        self.server_bandwidth = server_bandwidth
        self.meter = TrafficMeter(num_workers)
        self.timer = CommunicationTimer()

    @staticmethod
    def link_endpoints(sender: int, receiver: int) -> Tuple:
        """Directional link-end keys of one transfer.

        Links are full duplex: ``a → b`` occupies ``a``'s transmit end
        and ``b``'s receive end, so a simultaneous ``b → a`` does not
        contend with it — but two concurrent sends out of ``a`` do.
        """
        return (("tx", sender), ("rx", receiver))

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def link_bandwidth(self, sender: int, receiver: int) -> Optional[float]:
        """MB/s on a link, or ``None`` when time is not modelled."""
        if sender == TrafficMeter.SERVER or receiver == TrafficMeter.SERVER:
            return self.server_bandwidth
        if self.bandwidth is None:
            return None
        return float(self.bandwidth[sender, receiver])

    def send(
        self, round_index: int, sender: int, receiver: int, payload: Payload
    ) -> int:
        """Account one payload transfer; returns its wire size in bytes."""
        num_bytes = payload.num_bytes()
        self.meter.record(round_index, sender, receiver, num_bytes)
        link = self.link_bandwidth(sender, receiver)
        if link is not None:
            self.timer.add_transfer(
                num_bytes, link, endpoints=self.link_endpoints(sender, receiver)
            )
        return num_bytes

    def send_bytes(
        self, round_index: int, sender: int, receiver: int, num_bytes: int
    ) -> int:
        """Account a raw byte transfer (for aggregate collectives)."""
        self.meter.record(round_index, sender, receiver, num_bytes)
        link = self.link_bandwidth(sender, receiver)
        if link is not None:
            self.timer.add_transfer(
                num_bytes, link, endpoints=self.link_endpoints(sender, receiver)
            )
        return num_bytes

    def exchange(
        self, round_index: int, worker_a: int, worker_b: int, payload_a: Payload,
        payload_b: Payload,
    ) -> Tuple[int, int]:
        """Bidirectional peer exchange (the SAPS pattern)."""
        bytes_a = self.send(round_index, worker_a, worker_b, payload_a)
        bytes_b = self.send(round_index, worker_b, worker_a, payload_b)
        return bytes_a, bytes_b

    def finish_round(self) -> float:
        """Close the synchronous round in the timer."""
        return self.timer.finish_round()

    # ------------------------------------------------------------------
    # convenience queries (proxied from the meters)
    # ------------------------------------------------------------------

    def server_traffic_mb(self) -> float:
        return self.meter.server_traffic_mb()

    def total_time_seconds(self) -> float:
        return self.timer.total_seconds
