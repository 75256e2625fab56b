"""SAPS-PSGD: the paper's algorithm, end to end.

Per round (Algorithms 1+2):

1. the coordinator runs adaptive peer selection and broadcasts
   ``(W_t, t, s)`` (a *small* status message — never model data);
2. every worker takes one local SGD step on its shard;
3. matched pairs exchange the seeded-random-masked model components
   (``≈N/c`` values each way, no index overhead) and average them
   (Eq. 7);
4. workers notify "ROUND END".

``selector`` picks the peer-selection policy: ``"adaptive"`` is the
paper's Algorithm 3; ``"random"`` is the Fig. 5 "RandomChoose" baseline;
``"ring"`` alternates the two perfect matchings of a fixed even cycle
(single-peer communication without adaptivity).

``fault_plan`` takes the :class:`~repro.sim.faults.FaultPlan` the event
engine executes and reads it over each round's window ``[rΔ, rΔ + Δ)``,
``Δ = round_duration``: a worker down at any point in the window sits
the round out (no SGD, no matching — Table I's "R." column), and an
exchange whose link is down at any point in it is lost, leaving the
pair unmixed.  The queries draw no RNG; an empty plan is inert.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import DistributedAlgorithm
from repro.compression.base import check_compression_ratio
from repro.compression.random_mask import RandomMaskCompressor, generate_mask
from repro.core.gossip import (
    FixedRingSelector,
    RandomPeerSelector,
    average_pairs,
)
from repro.core.protocol import Coordinator, RoundPlan
from repro.network.metrics import utilized_bandwidth_per_round
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive


class SAPSPSGD(DistributedAlgorithm):
    """Sparsification + Adaptive Peer Selection PSGD."""

    name = "SAPS-PSGD"

    def __init__(
        self,
        compression_ratio: float = 100.0,
        connectivity_gap: int = 20,
        selector: str = "adaptive",
        base_seed: int = 0,
        prefer_weighted: bool = False,
        fault_plan=None,
        local_steps: int = 1,
        sample_size: Optional[int] = None,
        population=None,
        round_duration: float = 1.0,
    ) -> None:
        super().__init__()
        self.compression_ratio = check_compression_ratio(compression_ratio)
        if selector not in ("adaptive", "random", "ring"):
            raise ValueError(f"unknown selector {selector!r}")
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        if not connectivity_gap >= 1:
            raise ValueError(f"connectivity_gap must be >= 1, got {connectivity_gap}")
        #: SGD steps per communication round.  The paper uses 1; larger
        #: values trade consensus quality for fewer exchanges (a
        #: FedAvg-style extension, ablated in bench_ablations).
        self.local_steps = int(local_steps)
        #: Round-level compressor: the whole replica matrix goes through
        #: ``compress_matrix_with_seed`` (one shared mask, one gather).
        self.compressor = RandomMaskCompressor(self.compression_ratio)
        self.connectivity_gap = connectivity_gap
        self.selector_kind = selector
        self.base_seed = int(base_seed)
        self.prefer_weighted = prefer_weighted
        self.fault_plan = fault_plan
        #: Count of exchanges lost to a downed link.
        self.dropped_exchanges = 0
        if sample_size is not None and int(sample_size) < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        check_positive(round_duration, "round_duration")
        #: Sampled-neighborhood participation: draw ``sample_size``
        #: clients per round (from the ``population``'s up set when one
        #: is attached), restrict matching and local steps to the draw.
        #: The draw uses its *own* seed substream, so a sample covering
        #: every worker leaves the matching/mask RNG untouched — full-
        #: coverage runs are bit-identical to full participation.
        self.sample_size = None if sample_size is None else int(sample_size)
        self.population = population
        #: Simulated seconds per round: the clock of the population draw
        #: and of the fault plan's round windows.
        self.round_duration = float(round_duration)
        self._participation_rng = None
        self.coordinator: Optional[Coordinator] = None
        #: Fig. 5 series: per-round utilized (bottleneck) bandwidth.
        self.round_bandwidths: List[float] = []
        #: Diagnostics: rounds where Algorithm 3 took the connectivity
        #: fallback branch.
        self.fallback_rounds: List[int] = []

    def _after_setup(self) -> None:
        n = self.num_workers
        plan = self.fault_plan
        if plan is not None and plan.num_workers != n:
            raise ValueError(
                f"fault plan is for {plan.num_workers} workers but the "
                f"network has {n}"
            )
        if self.selector_kind == "adaptive":
            bandwidth = self.network.bandwidth
            if bandwidth is None:
                # No bandwidth model: all links equal, so adaptivity
                # degenerates gracefully to random matching.
                bandwidth = np.ones((n, n)) - np.eye(n)
            self.coordinator = Coordinator(
                bandwidth,
                connectivity_gap=self.connectivity_gap,
                base_seed=self.base_seed,
                rng=self._rng,
                prefer_weighted=self.prefer_weighted,
            )
            self._selector = None
        elif self.selector_kind == "random":
            self._selector = RandomPeerSelector(n, rng=self._rng)
        else:
            self._selector = FixedRingSelector(n)
        self.round_bandwidths = []
        self.fallback_rounds = []
        # Fresh setup, fresh participation substream.
        self._participation_rng = None

    def participation_context(self):
        """The shared selection/gating layer for this gossip run."""
        # Imported here: repro.algorithms must not import the repro.sim
        # package at module load (sim.comparison imports the algorithms).
        from repro.sim.participation import ParticipationContext

        return ParticipationContext(
            self.num_workers,
            population=self.population,
            sample_size=self.sample_size,
            round_duration=self.round_duration,
        )

    # ------------------------------------------------------------------
    # the fault plan over one round's window [rΔ, rΔ + Δ)
    # ------------------------------------------------------------------
    def _window(self, round_index: int) -> Tuple[float, float]:
        start = round_index * self.round_duration
        return start, start + self.round_duration

    def round_active(self, round_index: int) -> np.ndarray:
        """Workers up for the whole round: dying mid-round, or coming
        back mid-round, means missing it."""
        start, end = self._window(round_index)
        plan = self.fault_plan
        return np.array(
            [plan.up_during(rank, start, end) for rank in range(plan.num_workers)],
            dtype=bool,
        )

    def exchange_lost(self, round_index: int, a: int, b: int) -> bool:
        """Whether the round's exchange between ``a`` and ``b`` is lost:
        their link is down at some point in the round."""
        return not self.fault_plan.link_up_during(a, b, *self._window(round_index))

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def _plan(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> RoundPlan:
        if self.coordinator is not None:
            return self.coordinator.plan_round(round_index, active=active)
        selection = self._selector.select(round_index, active=active)
        from repro.core.matching import matching_to_partner_array

        return RoundPlan(
            round_index=round_index,
            matching=selection.matching,
            partners=matching_to_partner_array(
                selection.matching, self.num_workers
            ),
            mask_seed=derive_seed(self.base_seed, "mask", round_index),
            used_fallback=False,
        )

    def run_round(self, round_index: int) -> float:
        faults = self.fault_plan is not None and not self.fault_plan.is_empty
        active = (
            self.round_active(round_index) if faults
            else np.ones(self.num_workers, dtype=bool)
        )

        if self.sample_size is not None or self.population is not None:
            # Sampled-neighborhood round: matching, local SGD and the
            # exchange all restrict to the drawn (up) participant set.
            # The draw rides a dedicated seed substream so a full-
            # coverage sample changes no other RNG stream.
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
        plan = self._plan(
            round_index, active=None if active.all() else active
        )
        if plan.used_fallback:
            self.fallback_rounds.append(round_index)

        # Local SGD on every *online* worker (Algorithm 2, line 5).
        active_ranks = np.flatnonzero(active)
        if active_ranks.size == 0:
            self.network.finish_round()
            return float("nan")
        # Fused round: with every worker online the shared mask's kept
        # indices are already determined by the round seed, so the
        # compression gather can ride the final local-step update pass
        # (each block's masked columns are read while that block is
        # cache-hot).  Mask generation uses its own seeded generator, so
        # hoisting it before the local phase perturbs no RNG stream.
        # An offline or undrawn subset takes its local steps first and
        # regathers below.
        gathered = mask_indices = None
        if active.all():
            mask = generate_mask(
                self.model_size, self.compression_ratio, plan.mask_seed
            )
            mask_indices = np.flatnonzero(mask)
            losses, gathered = self.cluster_trainer.batched_steps_gather(
                self.local_steps, mask_indices
            )
        else:
            losses = self.cluster_trainer.batched_steps(
                self.local_steps, active_ranks
            )
        self._check_finite(losses, active_ranks, "round", round_index)

        pairs = np.asarray(plan.matching, dtype=np.int64).reshape(-1, 2)
        if faults:
            # Downed links first: surviving pairs actually exchange; a
            # lost exchange leaves both peers with their local models
            # (equivalent to being unmatched this round).
            kept = np.array(
                [not self.exchange_lost(round_index, a, b) for a, b in plan.matching],
                dtype=bool,
            )
            self.dropped_exchanges += int(kept.size - kept.sum())
            pairs = pairs[kept]

        # Batched Eq. (7) end-to-end: one batch holds the round's shared
        # mask (Algorithm 2, lines 6-7) and the values the pairs ship;
        # the merge averages every matched pair's masked components and
        # scatters them back.
        if pairs.size:
            with obs.phase("comm"):
                if gathered is not None:
                    # Fused path: values were gathered during the
                    # update pass — bit-identical to re-reading the
                    # arena here.
                    batch = self.compressor.batch_from_values(
                        gathered, mask_indices, self.model_size
                    )
                else:
                    batch = self.compressor.compress_matrix_with_seed(
                        self.arena.data, plan.mask_seed
                    )
                self.network.exchange(round_index, pairs[:, 0], pairs[:, 1], batch)
                average_pairs(
                    self.arena.data, pairs[:, :1], pairs[:, 1:], batch.indices
                )

        if self.network.bandwidth is not None:
            self.round_bandwidths.append(
                utilized_bandwidth_per_round(plan.matching, self.network.bandwidth)
            )
        if self.coordinator is not None:
            self.coordinator.notify_round_end(active_ranks)
            assert self.coordinator.round_complete()
        self.network.finish_round()
        return float(np.mean(losses))
