"""Common interface of the seven compared distributed algorithms.

Each algorithm binds to a list of :class:`TrainingWorker` and a
:class:`SimulatedNetwork` (:meth:`DistributedAlgorithm.setup`) and then
executes synchronous communication rounds (:meth:`run_round`).  Traffic
and time fall out of the network's meters, so the harness can plot every
algorithm on the paper's axes without algorithm-specific glue.

The cluster state is always the paper's replica matrix ``X ∈ R^{n×N}``:
after :meth:`~DistributedAlgorithm.setup` every worker is a row of one
:class:`~repro.nn.arena.ParameterArena` and every communication phase is
written over that matrix.  Local compute has one route too: the
:class:`~repro.sim.cluster.ClusterTrainer` that ``setup`` builds over the
same rows (``cluster_trainer``), for every model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.network.transport import SimulatedNetwork
from repro.nn.arena import ParameterArena
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # avoid a runtime cycle with repro.sim
    from repro.sim.trainer import TrainingWorker


class DivergenceError(FloatingPointError):
    """A local step produced a non-finite loss: every value the run would
    report from then on is noise, so it stops where the loss appeared.
    The message names the family, the worker, the round or simulated
    time, and the phase."""


class DistributedAlgorithm:
    """Base class; subclasses implement :meth:`run_round`."""

    #: Human-readable algorithm name, matching the paper's legends.
    name: str = "base"

    def __init__(self) -> None:
        self.workers: List["TrainingWorker"] = []
        self.network: Optional[SimulatedNetwork] = None
        self._rng: Optional[np.random.Generator] = None  # set by setup
        #: Workers that computed in the last round (None = all).  The
        #: engine's compute-time model reads this to bill stragglers.
        self.last_participants: Optional[List[int]] = None
        #: The :class:`ParameterArena` whose rows ``0..n-1`` are the
        #: workers' models, in rank order.  Set by :meth:`setup`.
        self.arena: Optional[ParameterArena] = None
        #: The local-step engine (:class:`repro.sim.cluster.ClusterTrainer`)
        #: over :attr:`arena`'s rows.  Set by :meth:`setup`.
        self.cluster_trainer = None
        #: ``lr·ḡ`` scratch of :meth:`_apply_average_gradient`.
        self._scaled_average: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(
        self,
        workers: Sequence["TrainingWorker"],
        network: SimulatedNetwork,
        rng: SeedLike = None,
    ) -> None:
        """Bind workers and network; synchronize initial models.

        All algorithms start from identical parameters (the paper's
        consensus analysis notes ``‖X_0 − X̄_0 1ᵀ‖² = 0`` when workers
        share the initial model), taken from worker 0.  Workers that are
        not yet rows of one arena are adopted into one
        (:func:`repro.sim.trainer.bind_arena`); workers whose steps cannot
        stack are refused (:meth:`repro.sim.cluster.ClusterTrainer.build`).
        """
        if len(workers) < 2:
            raise ValueError("distributed algorithms need at least 2 workers")
        if network.num_workers != len(workers):
            raise ValueError(
                f"network has {network.num_workers} endpoints for "
                f"{len(workers)} workers"
            )
        self.workers = list(workers)
        self.network = network
        self._rng = as_generator(rng)
        sizes = {worker.model_size for worker in self.workers}
        if len(sizes) != 1:
            raise ValueError(
                f"all workers must share one architecture; got model "
                f"sizes {sorted(sizes)}"
            )
        # Deferred import: repro.sim pulls in repro.algorithms at
        # package-import time (via the comparison harness).
        from repro.sim.cluster import ClusterTrainer

        self.cluster_trainer = ClusterTrainer.build(self.workers)
        self.arena = self.cluster_trainer.arena
        # One broadcast over the replica matrix replaces n-1
        # concat/split round-trips.
        self.arena.broadcast_row(0)
        self._after_setup()

    def _after_setup(self) -> None:
        """Hook for per-algorithm state (buffers, replicas, coordinator)."""

    # ------------------------------------------------------------------
    # the synchronous round
    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> float:
        """One communication round; returns the mean local training loss."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def model_size(self) -> int:
        # Once bound, the arena's width: no module walk per exchange.
        if self.arena is not None:
            return self.arena.model_size
        return self.workers[0].model_size

    def _check_finite(
        self, losses: np.ndarray, ranks, clock: str, at, phase: str = "local step"
    ) -> None:
        """Raise :class:`DivergenceError` naming the first worker of
        ``ranks`` (all when ``None``) with a non-finite loss in ``losses``
        (one row per worker), at ``clock`` ``at`` ("round", 3)."""
        finite = np.isfinite(losses)
        if finite.all():
            return
        row = int(np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0])
        rank = row if ranks is None else int(np.asarray(ranks)[row])
        raise DivergenceError(
            f"{self.name}: worker {rank} produced a non-finite loss in its "
            f"{phase} at {clock} {at}"
        )

    #: Row-block byte budget of the fused update/mix passes — same
    #: rationale as :attr:`repro.sim.cluster.ClusterTrainer.BLOCK_BYTES`:
    #: one block's rows and its scratch stay cache-resident, and the
    #: partition depends only on this constant (never the thread count),
    #: so blocked, threaded and whole-matrix execution all agree bitwise.
    MIX_BLOCK_BYTES = 8 << 20

    def _mix_block_rows(self) -> int:
        row_bytes = max(
            self.arena.model_size * self.arena.dtype.itemsize, 1
        )
        return max(1, self.MIX_BLOCK_BYTES // row_bytes)

    def _apply_average_gradient(self, average: np.ndarray) -> None:
        """``xᵢ ← xᵢ − lrᵢ·ḡ`` on every worker (the all-reduce update).

        ``lr·ḡ`` is computed once per distinct learning rate (a CLI run
        has one) into a persistent ``(N,)`` scratch, and each replica
        row subtracts it in place: no ``(n, N)`` or ``(block, N)``
        temporary, and the replicas stream through cache once.  Per
        element this is the multiply-then-subtract of the whole-matrix
        expression ``X − rates[:, None]·ḡ`` on the same operands, so the
        result is bit-identical to it.  Row blocks are independent and
        run on the configured thread pool.
        """
        from repro.utils import parallel

        # Learning rates in the arena dtype: float32 runs update
        # without a float64 upcast temporary (no-op at float64).
        rates = np.array(
            [w.optimizer.lr for w in self.workers], dtype=self.arena.dtype
        )
        data = self.arena.data
        dtype = np.result_type(rates, average)
        scaled = self._scaled_average
        if scaled is None or (scaled.shape, scaled.dtype) != (average.shape, dtype):
            scaled = self._scaled_average = np.empty(average.shape, dtype)

        blocks = parallel.block_ranges(self.num_workers, self._mix_block_rows())

        def update_block(bound) -> None:
            # ``rate`` is the loop variable below, read while it holds.
            for row in range(*bound):
                if rates[row] == rate:
                    data[row] -= scaled

        with obs.phase("mix"):
            for rate in np.unique(rates):
                np.multiply(rate, average, out=scaled)
                parallel.parallel_map(update_block, blocks, phase="mix.block")
        for worker in self.workers:
            worker.steps_taken += 1

    def consensus_model(self) -> np.ndarray:
        """The average model ``X̄ = X·1/n`` — what gets evaluated."""
        return self.arena.mean_model()

    def consensus_distance(self) -> float:
        """``(1/n)Σᵢ‖xᵢ − x̄‖²`` — the quantity Theorem 1 bounds."""
        return self.arena.consensus_distance()

    def min_link_bandwidth(self) -> Optional[float]:
        """Slowest pairwise link — the collective-operation bottleneck."""
        if self.network is None or self.network.bandwidth is None:
            return None
        matrix = self.network.bandwidth
        off_diag = matrix[~np.eye(matrix.shape[0], dtype=bool)]
        return float(off_diag.min())
