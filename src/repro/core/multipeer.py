"""Multi-peer gossip: the degree/consensus/communication trade-off.

Section II-C of the paper: "One can add more connections in the graph to
achieve faster consensus, but it would introduce more communications. So
there exists a trade-off between communication efficiency and the time to
achieve consensus."  SAPS-PSGD picks degree 1 (one peer per round); this
module generalizes to degree ``k`` so the trade-off can be measured:

* :func:`union_of_matchings` — ``k`` edge-disjoint random perfect
  matchings per round (a random ``k``-regular-ish communication graph);
* :func:`gossip_from_neighbor_sets` — uniform-weight doubly stochastic
  ``W`` where each worker averages itself with its round-``k`` neighbours;
* :class:`MultiPeerSelector` — drop-in selector producing degree-``k``
  gossip rounds; per-worker traffic scales with ``k`` while ρ of
  ``E[WᵀW]`` falls (measured in ``bench_ablations_multipeer``).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.gossip import PeerSelectionResult
from repro.core.matching import Matching, randomly_max_match
from repro.utils.rng import SeedLike, as_generator


def union_of_matchings(
    num_workers: int,
    degree: int,
    rng: SeedLike = None,
    max_tries: int = 50,
) -> List[Matching]:
    """``degree`` edge-disjoint matchings over the complete graph.

    Returns a list of matchings; their union is a graph where every
    worker has exactly ``degree`` distinct neighbours (for even ``n``;
    odd ``n`` leaves one unmatched per matching).
    """
    if num_workers < 2:
        raise ValueError("need at least 2 workers")
    if not 1 <= degree < num_workers:
        raise ValueError(f"degree must be in [1, {num_workers - 1}], got {degree}")
    rng = as_generator(rng)
    for _ in range(max_tries):
        used = np.zeros((num_workers, num_workers), dtype=bool)
        matchings: List[Matching] = []
        ok = True
        for _ in range(degree):
            available = ~np.eye(num_workers, dtype=bool) & ~used
            matching = randomly_max_match(available, rng=rng)
            if len(matching) < num_workers // 2:
                ok = False
                break
            for a, b in matching:
                used[a, b] = used[b, a] = True
            matchings.append(matching)
        if ok:
            return matchings
    raise RuntimeError(
        f"could not build {degree} edge-disjoint perfect matchings "
        f"on {num_workers} workers in {max_tries} tries"
    )


def neighbor_sets_from_matchings(
    matchings: List[Matching], num_workers: int
) -> List[Set[int]]:
    """Per-worker neighbour sets of the union graph."""
    neighbors: List[Set[int]] = [set() for _ in range(num_workers)]
    for matching in matchings:
        for a, b in matching:
            neighbors[a].add(b)
            neighbors[b].add(a)
    return neighbors


def gossip_from_neighbor_sets(
    neighbors: List[Set[int]], num_workers: int
) -> np.ndarray:
    """Doubly stochastic ``W`` from symmetric neighbour sets.

    Uses Metropolis-Hastings weights
    ``W_ij = 1 / (1 + max(deg_i, deg_j))`` for neighbours, with the
    remainder on the diagonal — symmetric and doubly stochastic for any
    symmetric neighbour structure (including irregular ones from odd
    worker counts).
    """
    gossip = np.zeros((num_workers, num_workers))
    degrees = [len(s) for s in neighbors]
    for i in range(num_workers):
        for j in neighbors[i]:
            if j <= i:
                continue
            if i not in neighbors[j]:
                raise ValueError("neighbour sets must be symmetric")
            weight = 1.0 / (1.0 + max(degrees[i], degrees[j]))
            gossip[i, j] = gossip[j, i] = weight
    for i in range(num_workers):
        gossip[i, i] = 1.0 - gossip[i].sum()
    return gossip


class MultiPeerSelectionResult(PeerSelectionResult):
    """A degree-``k`` round: ``matching`` lists the union's edges, so
    ``W_t`` comes from neighbour sets rather than from one matching."""

    @property
    def gossip(self) -> np.ndarray:
        neighbors = neighbor_sets_from_matchings([self.matching], self.num_workers)
        return gossip_from_neighbor_sets(neighbors, self.num_workers)


class MultiPeerSelector:
    """Degree-``k`` generalization of the random single-peer selector.

    ``select(t)`` returns a :class:`PeerSelectionResult` whose
    ``matching`` is the union's edge list (so traffic accounting sees
    ``k`` exchanges per worker) and whose ``gossip`` averages each worker
    with all ``k`` neighbours.
    """

    def __init__(self, num_workers: int, degree: int, rng: SeedLike = None) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 1 <= degree < num_workers:
            raise ValueError(f"degree must be in [1, {num_workers - 1}]")
        self.num_workers = num_workers
        self.degree = degree
        self._rng = as_generator(rng)

    def select(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> PeerSelectionResult:
        if active is not None:
            raise NotImplementedError(
                "MultiPeerSelector does not support churn; "
                "use degree=1 (SAPS) for dynamic membership"
            )
        matchings = union_of_matchings(
            self.num_workers, self.degree, rng=self._rng
        )
        edges: List[Tuple[int, int]] = sorted(
            edge for matching in matchings for edge in matching
        )
        return MultiPeerSelectionResult(edges, self.num_workers)
