"""Common interface of the seven compared distributed algorithms.

Each algorithm binds to a list of :class:`TrainingWorker` and a
:class:`SimulatedNetwork` (:meth:`DistributedAlgorithm.setup`) and then
executes synchronous communication rounds (:meth:`run_round`).  Traffic
and time fall out of the network's meters, so the harness can plot every
algorithm on the paper's axes without algorithm-specific glue.

The cluster state is always the paper's replica matrix ``X ∈ R^{n×N}``:
after :meth:`~DistributedAlgorithm.setup` every worker is a row of one
:class:`~repro.nn.arena.ParameterArena` and every communication phase is
written over that matrix.  Only local *compute* has two routes — the
batched :class:`~repro.sim.cluster.ClusterTrainer`, or the per-worker
loop for models it declines (ResNet-20's BatchNorm + residual wiring) —
and both sit behind one seam here: :meth:`_local_steps` and
:meth:`_local_gradients_into_arena`.
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


class DistributedAlgorithm:
    """Base class; subclasses implement :meth:`run_round`."""

    #: Human-readable algorithm name, matching the paper's legends.
    name: str = "base"

    def __init__(self) -> None:
        self.workers: List["TrainingWorker"] = []
        self.network: Optional[SimulatedNetwork] = None
        self._rng = as_generator(None)
        #: Workers that computed in the last round (None = all).  The
        #: engine's compute-time model reads this to bill stragglers.
        self.last_participants: Optional[List[int]] = None
        #: The :class:`ParameterArena` whose rows ``0..n-1`` are the
        #: workers' models, in rank order.  Set by :meth:`setup`.
        self.arena: Optional[ParameterArena] = None
        #: Batched local-step engine (:class:`repro.sim.cluster.ClusterTrainer`)
        #: when the workers admit an exactly-equivalent batched path;
        #: ``None`` keeps the per-worker compute loop.  Set by
        #: :meth:`setup`.
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
        (:func:`repro.sim.trainer.bind_arena`).
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
        # Deferred imports: repro.sim pulls in repro.algorithms at
        # package-import time (via the comparison harness).
        from repro.sim.cluster import ClusterTrainer
        from repro.sim.trainer import bind_arena

        self.arena = bind_arena(self.workers)
        # One broadcast over the replica matrix replaces n-1
        # concat/split round-trips.
        self.arena.broadcast_row(0)
        self.cluster_trainer = ClusterTrainer.build(
            self.workers, arena=self.arena
        )
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

    def _local_gradients_into_arena(self, ranks=None) -> np.ndarray:
        """One sampled mini-batch gradient per worker (all, or ``ranks``),
        left in ``arena.grads``; returns the per-worker losses in
        ``ranks`` order.

        Batched through the :class:`ClusterTrainer` when available —
        bit-identical to the per-worker ``compute_gradient`` loop, which
        runs the models the trainer declines."""
        if self.cluster_trainer is not None:
            return self.cluster_trainer.compute_gradients(ranks)
        if ranks is None:
            ranks = range(self.num_workers)
        with obs.phase("compute"):
            return np.array(
                [self.workers[rank].compute_gradient() for rank in ranks]
            )

    def _local_steps(self, k: int, ranks=None) -> np.ndarray:
        """``k`` local SGD steps on every worker (or ``ranks``); returns
        the ``(len(ranks), k)`` loss matrix, worker-major.

        Batched: each step is one matrix-level forward/backward/update
        for all the workers at once — same per-worker RNG streams and
        loss order as the per-worker ``local_step`` loop, which runs the
        models the trainer declines; bit-identical trajectories."""
        if self.cluster_trainer is not None:
            return self.cluster_trainer.batched_steps(k, ranks=ranks)
        if ranks is None:
            ranks = range(self.num_workers)
        with obs.phase("compute"):
            return np.array(
                [
                    [self.workers[rank].local_step() for _ in range(k)]
                    for rank in ranks
                ]
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
