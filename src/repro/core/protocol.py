"""The SAPS-PSGD wire protocol: Coordinator (Alg. 1) and worker exchange (Alg. 2).

These classes implement the paper's protocol at the level of flat model
vectors and payload objects — independent of the neural-network substrate,
so the protocol is testable on toy vectors.  The full training algorithm
(:class:`repro.algorithms.SAPSPSGD`) composes them with real models.

Message flow per round ``t``:

* Coordinator: generate ``W_t`` via :class:`AdaptivePeerSelector`, draw a
  mask seed ``s``, broadcast ``(W_t, t, s)`` (small message — it never
  carries model data).
* Worker ``p``: run local SGD, build the shared mask from ``s``, send the
  masked components to ``W_t[p]``, receive the peer's, average the masked
  coordinates, leave the rest untouched, then notify "ROUND END".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.compression.base import SharedMaskPayload
from repro.compression.random_mask import generate_mask
from repro.core.gossip import (
    AdaptivePeerSelector,
    PeerSelectionResult,
    gossip_matrix_from_matching,
)
from repro.core.matching import Matching, matching_to_partner_array
from repro.utils.rng import SeedLike, as_generator, derive_seed


@dataclass
class RoundPlan:
    """The coordinator's broadcast for one round: ``(W_t, t, s)``.

    ``partners[p]`` is worker ``p``'s peer (``-1`` = unmatched this
    round), which is what ``W_t[rank]`` resolves to in Algorithm 2.
    """

    round_index: int
    matching: Matching
    partners: np.ndarray
    mask_seed: int
    used_fallback: bool = False

    @property
    def gossip(self) -> np.ndarray:
        """``W_t``, built when read: workers only look up ``partners``."""
        return gossip_matrix_from_matching(self.matching, len(self.partners))


class Coordinator:
    """Algorithm 1: lightweight tracker-style coordinator.

    Holds only *small* global state — bandwidth matrix, timestamps, seeds
    — never model parameters (except the single final model it collects).
    """

    def __init__(
        self,
        bandwidth: np.ndarray,
        bandwidth_threshold: Optional[float] = None,
        connectivity_gap: int = 20,
        base_seed: int = 0,
        rng: SeedLike = None,
        prefer_weighted: bool = False,
    ) -> None:
        self.selector = AdaptivePeerSelector(
            bandwidth,
            bandwidth_threshold=bandwidth_threshold,
            connectivity_gap=connectivity_gap,
            rng=as_generator(rng if rng is not None else base_seed),
            prefer_weighted=prefer_weighted,
        )
        self.num_workers = self.selector.num_workers
        self.base_seed = int(base_seed)
        self._round_ends: List[int] = []
        self._expected_ends = self.num_workers
        self.current_round = -1
        self.final_model: Optional[np.ndarray] = None

    def plan_round(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> RoundPlan:
        """Generate and "broadcast" the round's ``(W_t, t, s)``.

        ``active`` excludes offline workers from the matching (the
        coordinator knows who is connected — it is the tracker).
        """
        if round_index <= self.current_round:
            raise ValueError(
                f"round {round_index} already planned (at {self.current_round})"
            )
        selection: PeerSelectionResult = self.selector.select(
            round_index, active=active
        )
        self.current_round = round_index
        self._round_ends = []
        self._expected_ends = (
            self.num_workers if active is None else int(np.sum(active))
        )
        return RoundPlan(
            round_index=round_index,
            matching=selection.matching,
            partners=matching_to_partner_array(
                selection.matching, self.num_workers
            ),
            mask_seed=derive_seed(self.base_seed, "mask", round_index),
            used_fallback=selection.used_fallback,
        )

    def notify_round_end(self, rank: int) -> None:
        """A worker's "ROUND END" message (Algorithm 2, line 11)."""
        if not 0 <= rank < self.num_workers:
            raise ValueError(f"rank {rank} out of range")
        if rank in self._round_ends:
            raise ValueError(f"worker {rank} already ended round")
        self._round_ends.append(rank)

    def round_complete(self) -> bool:
        """True once every *participating* worker has notified
        (Algorithm 1, line 7)."""
        return len(self._round_ends) == self._expected_ends

    def collect_model(self, model_vector: np.ndarray) -> None:
        """Receive the final full model from any single worker."""
        self.final_model = np.asarray(model_vector, dtype=np.float64).copy()


class ModelExchangeWorker:
    """Algorithm 2's communication half, over a flat model vector.

    The caller owns local training; this class owns mask generation,
    payload construction and the Eq. (7) merge.
    """

    def __init__(self, rank: int, model_vector: np.ndarray, compression_ratio: float) -> None:
        if compression_ratio < 1.0:
            raise ValueError("compression_ratio must be >= 1")
        self.rank = rank
        self.x = np.asarray(model_vector, dtype=np.float64).copy()
        self.compression_ratio = float(compression_ratio)

    @property
    def model_size(self) -> int:
        return self.x.size

    def build_payload(self, mask_seed: int) -> SharedMaskPayload:
        """``x̃ = x ∘ m_t`` packed for the wire (lines 6-7, 9)."""
        mask = generate_mask(self.model_size, self.compression_ratio, mask_seed)
        indices = np.flatnonzero(mask)
        return SharedMaskPayload(
            values=self.x[indices].copy(), indices=indices, mask_seed=int(mask_seed)
        )

    def merge_peer(self, payload: SharedMaskPayload, mask_seed: int) -> None:
        """Eq. (7) merge: masked coordinates become the pairwise average
        ``(x_own + x_peer)/2`` (gossip weights 1/2, 1/2); unmasked
        coordinates are untouched (``x ∘ ¬m_t`` term)."""
        if payload.mask_seed != mask_seed:
            raise ValueError(
                f"peer payload carries seed {payload.mask_seed}, "
                f"expected {mask_seed} — shared-mask invariant violated"
            )
        mask = generate_mask(self.model_size, self.compression_ratio, mask_seed)
        indices = np.flatnonzero(mask)
        if indices.size != payload.indices.size or not np.array_equal(
            indices, payload.indices
        ):
            raise ValueError("peer mask does not match locally generated mask")
        self.x[indices] = 0.5 * self.x[indices] + 0.5 * payload.values


def exchange_pair(
    worker_a: ModelExchangeWorker,
    worker_b: ModelExchangeWorker,
    mask_seed: int,
) -> Tuple[SharedMaskPayload, SharedMaskPayload]:
    """Full bidirectional exchange between two matched workers.

    Returns the two payloads that crossed the wire (for traffic
    accounting).  After the call both workers agree exactly on the masked
    coordinates.
    """
    payload_a = worker_a.build_payload(mask_seed)
    payload_b = worker_b.build_payload(mask_seed)
    worker_a.merge_peer(payload_b, mask_seed)
    worker_b.merge_peer(payload_a, mask_seed)
    return payload_a, payload_b
