"""The SAPS-PSGD protocol's coordinator half (Algorithm 1).

The coordinator plans a round and tracks its end; it never sees model
data.  The worker half (Algorithm 2: local SGD and the Eq. 7 masked
exchange) is :meth:`repro.algorithms.SAPSPSGD.run_round`, on the arena.

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
from typing import Optional, Set

import numpy as np

from repro.core.gossip import AdaptivePeerSelector, PeerSelectionResult
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


class Coordinator:
    """Algorithm 1: lightweight tracker-style coordinator.

    Holds only *small* global state — bandwidth matrix, timestamps, seeds
    — never model parameters.
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
        self._round_ends: Set[int] = set()
        self._expected_ends = self.num_workers
        self.current_round = -1

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
        self._round_ends = set()
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
        self._round_ends.add(rank)

    def round_complete(self) -> bool:
        """True once every *participating* worker has notified
        (Algorithm 1, line 7)."""
        return len(self._round_ends) == self._expected_ends
