"""DCD-PSGD with one public copy per holder, as it ran before ``X̂``:
``replicas[i][j]`` is worker ``i``'s copy of worker ``j``'s public model,
for ``j`` in ``{i}`` and ``i``'s two ring neighbours, each integrating
every delta on its own, and each transfer accounted on its own on the
per-transfer timer of ``tests/reference/network.py``.  The oracle
``tests/test_algorithms.py`` holds the one-matrix family to, copy by
copy.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.algorithms import DCDPSGD
from tests.reference.network import per_transfer, send_bytes
from tests.reference.per_model import ring_neighbors


class ReplicaDCDPSGD(DCDPSGD):
    """DCD-PSGD over ``3n`` neighbour copies."""

    def _ring_neighbors(self, rank: int) -> List[int]:
        return ring_neighbors(rank, self.num_workers)

    def _after_setup(self) -> None:
        super()._after_setup()
        per_transfer(self.network)
        initial = self.workers[0].get_params()
        self.replicas: List[Dict[int, np.ndarray]] = []
        for rank in range(self.num_workers):
            owned = {rank: initial.copy()}
            for neighbor in self._ring_neighbors(rank):
                owned[neighbor] = initial.copy()
            self.replicas.append(owned)

    def run_round(self, round_index: int) -> float:
        losses = self.cluster_trainer.compute_gradients()
        gradients = self.arena.grads
        delta_matrix = np.empty(
            (self.num_workers, self.model_size), dtype=self.arena.dtype
        )
        for rank, worker in enumerate(self.workers):
            mixed = self.gossip[rank, rank] * self.replicas[rank][rank]
            for neighbor in self._ring_neighbors(rank):
                mixed = mixed + self.gossip[rank, neighbor] * self.replicas[rank][neighbor]
            new_params = mixed - worker.optimizer.lr * gradients[rank]
            worker.set_params(new_params)
            worker.steps_taken += 1
            delta_matrix[rank] = new_params - self.replicas[rank][rank]
        batch = self.compressor.compress_matrix(delta_matrix, round_index)
        deltas = batch.to_dense(self.model_size)
        payload_bytes = batch.row_bytes()
        for rank in range(self.num_workers):
            self.replicas[rank][rank] += deltas[rank]
            for neighbor in self._ring_neighbors(rank):
                self.replicas[neighbor][rank] += deltas[rank]
                send_bytes(
                    self.network, round_index, rank, neighbor,
                    int(payload_bytes[rank]),
                )
        self.network.finish_round()
        return float(np.mean(losses))
