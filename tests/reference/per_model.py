"""The per-model reference loop the shipped algorithms are diffed against.

The shipped classes run every round on the replica matrix
(``arena.data`` / ``arena.grads``) with batched local compute.  The
classes here execute the same algorithms the way the paper states them
per worker: a Python loop over :class:`~repro.sim.trainer.TrainingWorker`
objects, touching a model only through ``get_params`` / ``set_params`` /
:func:`compute_gradient` / ``local_step`` and never through an arena or a
:class:`~repro.sim.cluster.ClusterTrainer`.  They run on the same machine
as the code under test, so trajectories must agree bit for bit at any
dtype and BLAS build — no golden files.

Covered families: SAPS-PSGD, PSGD, TopK-PSGD, D-PSGD (the ones whose
communication phase has a vectorized form worth checking).  A reference
class is a drop-in for its shipped parent — same constructor, same
``setup`` / ``run_round`` / ``run_experiment`` call shapes — and inherits
only what is not under test: constructor validation, peer selection and
the traffic meters' accounting helpers.

:func:`per_worker_compute` is the smaller oracle: the shipped class and
its matrix-level communication, with only local compute forced through
the per-worker seam (the state production reaches for ResNet-20).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.decentralized import DPSGD
from repro.algorithms.psgd import PSGD, TopKPSGD
from repro.algorithms.saps_psgd import SAPSPSGD
from repro.compression.base import BYTES_PER_VALUE, SharedMaskPayload
from repro.compression.random_mask import generate_mask
from repro.core.gossip import ring_gossip_matrix
from repro.network.metrics import utilized_bandwidth_per_round
from repro.utils.rng import as_generator, derive_seed
from tests.reference.compressors import TopKCompressor
from tests.reference.error_feedback import ErrorFeedback
from tests.reference.per_worker import flat_grads, per_worker


def per_worker_compute(algorithm):
    """``algorithm``, set to drop its batched trainer at ``setup``.

    Returns the same object; its rounds then take local steps and
    gradients through the per-worker loop behind
    ``DistributedAlgorithm._local_steps`` / ``_local_gradients_into_arena``
    while communication stays on the replica matrix.
    """
    shipped_setup = algorithm.setup

    def setup(workers, network, rng=None):
        for worker in workers:
            per_worker(worker.model)
        shipped_setup(workers, network, rng=rng)
        algorithm.cluster_trainer = None

    algorithm.setup = setup
    return algorithm


def compute_gradient(worker):
    """``(loss, flat gradient)`` of one sampled mini-batch at the
    worker's current parameters, without applying it."""
    return worker.compute_gradient(), flat_grads(worker.model)


def apply_gradient(worker, flat_gradient, lr=None):
    """``x ← x − lr·g`` on one worker for an externally supplied gradient
    (``lr`` defaults to the worker's optimizer rate)."""
    step = worker.optimizer.lr if lr is None else lr
    worker.set_params(worker.get_params() - step * np.asarray(flat_gradient))
    worker.steps_taken += 1


class PerModelLoop:
    """Mixin: bind workers and read the cluster state one model at a time."""

    def setup(self, workers, network, rng=None):
        self.workers = list(workers)
        for worker in self.workers:
            per_worker(worker.model)
        self.network = network
        self._rng = as_generator(rng)
        # No matrix, no batched trainer: evaluate_consensus then borrows
        # worker 0 as its probe, the per-model evaluation path.
        self.arena = None
        self.cluster_trainer = None
        initial = self.workers[0].get_params().copy()
        for worker in self.workers[1:]:
            worker.set_params(initial)
        self._after_setup()

    def _replicas(self):
        return np.stack([worker.get_params() for worker in self.workers])

    def consensus_model(self):
        return self._replicas().mean(axis=0)

    def consensus_distance(self):
        stacked = self._replicas()
        mean = stacked.mean(axis=0)
        return float(np.mean(np.sum((stacked - mean) ** 2, axis=1)))

    def _apply_average_gradient(self, average):
        for worker in self.workers:
            apply_gradient(worker, average)


class ReferencePSGD(PerModelLoop, PSGD):
    def run_round(self, round_index):
        losses = []
        gradients = []
        for worker in self.workers:
            loss, gradient = compute_gradient(worker)
            losses.append(loss)
            gradients.append(gradient)
        self._apply_average_gradient(np.mean(gradients, axis=0))

        n = self.num_workers
        model_bytes = self.model_size * BYTES_PER_VALUE
        for i in range(n):
            self.network.meter.record(round_index, i, (i + 1) % n, model_bytes)
        bottleneck = self.min_link_bandwidth()
        if bottleneck is not None:
            self.network.timer.add_transfer(2 * model_bytes, bottleneck)
        self.network.finish_round()
        return float(np.mean(losses))


class ReferenceTopKPSGD(PerModelLoop, TopKPSGD):
    def _after_setup(self):
        # One residual buffer per worker, each compressing on its own.
        self._feedback = [
            ErrorFeedback(
                TopKCompressor(self.compressor.ratio), self.model_size,
                dtype=worker.model.dtype,
            )
            for worker in self.workers
        ]

    def run_round(self, round_index):
        losses = []
        dense_contributions = []
        payload_bytes = []
        for worker, feedback in zip(self.workers, self._feedback):
            loss, gradient = compute_gradient(worker)
            losses.append(loss)
            payload, dense_sent = feedback.compress(gradient, round_index)
            dense_contributions.append(dense_sent)
            payload_bytes.append(payload.num_bytes())
        self._apply_average_gradient(np.mean(dense_contributions, axis=0))

        n = self.num_workers
        for i in range(n):
            for j in range(n):
                if i != j:
                    self.network.meter.record(
                        round_index, i, j, payload_bytes[i]
                    )
        bottleneck = self.min_link_bandwidth()
        if bottleneck is not None:
            self.network.timer.add_transfer(
                (n - 1) * max(payload_bytes), bottleneck
            )
        self.network.finish_round()
        return float(np.mean(losses))


class ReferenceDPSGD(PerModelLoop, DPSGD):
    def _after_setup(self):
        self.gossip = ring_gossip_matrix(self.num_workers).astype(
            self.workers[0].model.dtype, copy=False
        )

    def run_round(self, round_index):
        losses = []
        gradients = []
        # Round-start copies: get_params may be a live view that a later
        # set_params in the mixing loop would change under a neighbour.
        params = [worker.get_params().copy() for worker in self.workers]
        for worker in self.workers:
            loss, gradient = compute_gradient(worker)
            losses.append(loss)
            gradients.append(gradient)
        self._account_ring_traffic(round_index)
        for rank, worker in enumerate(self.workers):
            mixed = self.gossip[rank, rank] * params[rank]
            for neighbor in self._ring_neighbors(rank):
                mixed = mixed + self.gossip[rank, neighbor] * params[neighbor]
            # D-PSGD's learning rates are float64 whatever the model
            # dtype: the step is formed and subtracted in float64 and
            # rounded once into the replica (a no-op at float64).
            step = worker.optimizer.lr * gradients[rank].astype(np.float64)
            worker.set_params(mixed - step)
            worker.steps_taken += 1
        self.network.finish_round()
        return float(np.mean(losses))


class ReferenceSAPSPSGD(PerModelLoop, SAPSPSGD):
    def run_round(self, round_index):
        faults = self.fault_plan is not None and not self.fault_plan.is_empty
        if faults:
            active = self.round_active(round_index)
        else:
            active = np.ones(self.num_workers, dtype=bool)
        if self.sample_size is not None or self.population is not None:
            if self._participation_rng is None:
                self._participation_rng = np.random.default_rng(
                    derive_seed(self.base_seed, "participation")
                )
            active &= self.participation_context().round_mask(
                round_index, self._participation_rng
            )
        self.last_participants = (
            None if active.all() else np.flatnonzero(active).tolist()
        )
        plan = self._plan(round_index, active=None if active.all() else active)
        if plan.used_fallback:
            self.fallback_rounds.append(round_index)
        if not active.any():
            self.network.finish_round()
            return float("nan")

        # Algorithm 2, line 5: local SGD on every online worker.
        losses = [
            worker.local_step()
            for worker, is_up in zip(self.workers, active)
            if is_up
            for _ in range(self.local_steps)
        ]

        # Lines 6-9, pair by pair: both peers regenerate the round's
        # mask from the broadcast seed, swap the surviving components
        # and average them (Eq. 7).
        mask = generate_mask(
            self.model_size, self.compression_ratio, plan.mask_seed
        )
        indices = np.flatnonzero(mask)
        for a, b in plan.matching:
            if faults and self.exchange_lost(round_index, a, b):
                self.dropped_exchanges += 1
                continue
            params_a = self.workers[a].get_params().copy()
            params_b = self.workers[b].get_params().copy()
            self.network.exchange(
                round_index, a, b,
                SharedMaskPayload(
                    values=params_a[indices], indices=indices,
                    mask_seed=plan.mask_seed,
                ),
                SharedMaskPayload(
                    values=params_b[indices], indices=indices,
                    mask_seed=plan.mask_seed,
                ),
            )
            averaged = 0.5 * (params_a[indices] + params_b[indices])
            params_a[indices] = averaged
            params_b[indices] = averaged
            self.workers[a].set_params(params_a)
            self.workers[b].set_params(params_b)

        if self.network.bandwidth is not None:
            self.round_bandwidths.append(
                utilized_bandwidth_per_round(plan.matching, self.network.bandwidth)
            )
        if self.coordinator is not None:
            for rank in np.flatnonzero(active):
                self.coordinator.notify_round_end(int(rank))
            assert self.coordinator.round_complete()
        self.network.finish_round()
        return float(np.mean(losses))


#: Shipped class -> its per-model reference.
REFERENCE = {
    SAPSPSGD: ReferenceSAPSPSGD,
    PSGD: ReferencePSGD,
    TopKPSGD: ReferenceTopKPSGD,
    DPSGD: ReferenceDPSGD,
}
