"""Simulated transport: couples a bandwidth matrix with traffic/time meters.

:class:`SimulatedNetwork` is what the algorithms talk to.  It does not
move data (the algorithms mix the replica matrix in place); it
*accounts* — bytes per endpoint and synchronous-round time — so every
experiment gets Figs. 4-6 numbers for free.  A synchronous round says
who sends how many bytes to whom in one call of arrays
(:meth:`~SimulatedNetwork.send_bytes`, :meth:`~SimulatedNetwork.send`,
:meth:`~SimulatedNetwork.exchange`); each transfer is metered at both
ends and timed at its link.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.compression.base import BatchPayload
from repro.network.metrics import CommunicationTimer, TrafficMeter
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
        centralized baselines.  Defaults to the matrix's largest entry:
        the paper's Fig. 6 setup gives the server "the maximum
        bandwidth".  ``None`` with no matrix skips server time.
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
        elif bandwidth is not None:
            server_bandwidth = float(bandwidth.max())
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

    def send_bytes(self, round_index: int, senders, receivers, num_bytes) -> None:
        """Account a round's linked transfers ``senders[i] →
        receivers[i]`` of ``num_bytes[i]`` bytes (one number applies to
        all): metered at both ends, timed at the link — a server end at
        ``server_bandwidth`` — wherever time is modelled."""
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        num_bytes = np.broadcast_to(np.asarray(num_bytes, dtype=np.int64), senders.shape)
        self.meter.record_round(senders, receivers, num_bytes)
        server = (senders == TrafficMeter.SERVER) | (receivers == TrafficMeter.SERVER)
        if self.bandwidth is not None:
            speeds = np.where(server, self.server_bandwidth, self.bandwidth[senders, receivers])
        elif self.server_bandwidth is not None:  # only the server's links are timed
            senders, receivers, num_bytes = senders[server], receivers[server], num_bytes[server]
            speeds = np.full(senders.shape, self.server_bandwidth)
        else:  # time is not modelled
            return
        self.timer.add_transfers(round_index, senders, receivers, num_bytes, speeds)

    def send(self, round_index: int, senders, receivers, batch: BatchPayload) -> None:
        """:meth:`send_bytes` of each sender's row of ``batch``."""
        self.send_bytes(round_index, senders, receivers, batch.row_bytes()[senders])

    def exchange(self, round_index: int, worker_a, worker_b, batch: BatchPayload) -> None:
        """Both directions of a round's pairs ``(worker_a[i],
        worker_b[i])`` (the SAPS pattern): each sends its row of
        ``batch`` to the other."""
        forward = np.column_stack([worker_a, worker_b]).ravel()
        backward = np.column_stack([worker_b, worker_a]).ravel()
        self.send(round_index, forward, backward, batch)

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
