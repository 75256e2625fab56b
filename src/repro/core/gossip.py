"""Gossip-matrix generation with adaptive peer selection (Algorithm 3).

Per round ``t`` the coordinator produces a perfect (or maximum) matching
over the workers and converts it to the doubly-stochastic gossip matrix
``W_t`` (``W_ii = W_ij = 1/2`` for matched pairs — each worker averages
with exactly one peer).

Peer selection is *adaptive*:

1. ``R`` keeps the matchings of the last ``T_thres`` rounds; their union
   is the "recently connected" (RC) graph.
2. If the RC edges span a connected graph, match on the
   bandwidth-filtered graph ``B* = [B ≥ B_thres]`` — preferring
   high-bandwidth links (Algorithm 1's ``GetNewConnectedGraph``).
3. Otherwise match on edges *between* RC-connected sub-graphs
   (``GetOvertimeMatrix``) to restore long-run connectivity — the
   mechanism that keeps the second-largest eigenvalue of ``E[WᵀW]``
   below 1 (Assumption 3).
4. Any still-unmatched workers are matched ignoring bandwidth
   (``GetUnmatch``).

``R`` is a ring of the recent matchings (O(n·T_thres)), its components
come from union-find, the weighted matcher reads B's links from lists
built once, and a fallback graph, complete multipartite over the RC
components, is matched in closed form rather than by the blossom.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.matching import (
    Matching,
    greedy_matching_on_sorted,
    heaviest_links,
    matching_to_partner_array,
    max_cardinality_matching,
    multipartite_max_matching,
    randomly_max_match,
    randomly_max_match_multipartite,
)
from repro.network.bandwidth import symmetrize_min
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square


def gossip_matrix_from_matching(matching: Matching, num_workers: int) -> np.ndarray:
    """Algorithm 3's ``GenerateW``: matched pairs average (entries 1/2);
    unmatched workers keep their model (diagonal 1).

    The result is symmetric and doubly stochastic for any valid matching.
    """
    partners = matching_to_partner_array(matching, num_workers)
    gossip = np.zeros((num_workers, num_workers))
    workers = np.arange(num_workers)
    matched = partners >= 0
    gossip[workers, workers] = np.where(matched, 0.5, 1.0)
    gossip[workers[matched], partners[matched]] = 0.5
    return gossip


def average_pairs(
    replicas: np.ndarray, left, right, indices: np.ndarray
) -> None:
    """Eq. 7 on matched rows at once: rows ``left`` and ``right`` of
    ``replicas`` leave agreeing on ``½(x_a + x_b)`` at the shared mask's
    ``indices``; every other component stays put.  ``left`` / ``right``
    are one row each, or ``(P, 1)`` columns paired entry by entry (they
    broadcast against ``indices``, cheaper than ``np.ix_``)."""
    left = (left, indices)
    right = (right, indices)
    averaged = 0.5 * (replicas[left] + replicas[right])
    replicas[left] = averaged
    replicas[right] = averaged


def ring_gossip_matrix(num_workers: int, self_weight: float = 1.0 / 3.0) -> np.ndarray:
    """Uniform ring gossip matrix used by the D-PSGD/DCD-PSGD baselines:
    each worker averages itself with its two ring neighbours."""
    if num_workers < 3:
        raise ValueError("ring gossip needs at least 3 workers")
    neighbor_weight = (1.0 - self_weight) / 2.0
    gossip = np.zeros((num_workers, num_workers))
    for i in range(num_workers):
        gossip[i, i] = self_weight
        gossip[i, (i + 1) % num_workers] = neighbor_weight
        gossip[i, (i - 1) % num_workers] = neighbor_weight
    return gossip


def _restrict(graph: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
    """Drop edges touching inactive workers (federated churn)."""
    if active is None:
        return graph
    active = np.asarray(active, dtype=bool)
    return graph & (active[:, None] & active)


def _median_link(bandwidth: np.ndarray) -> float:
    """``np.median`` of a symmetric matrix's off-diagonal, read off its
    strict upper triangle: every link appears there once and twice in the
    off-diagonal, so the off-diagonal's two middle order statistics are
    the upper triangle's ``(U - 1) // 2``-th and ``U // 2``-th of ``U``
    links (the same one when ``U`` is odd), averaged as ``np.median``
    averages them."""
    n = bandwidth.shape[0]
    upper = bandwidth[~np.tri(n, dtype=bool)]
    if upper.size == 0:
        return float("nan")
    middle = [(upper.size - 1) // 2, upper.size // 2]
    upper.partition(middle)
    return float(np.mean(upper[middle]))


def _component_labels(num_workers: int, pairs: np.ndarray) -> np.ndarray:
    """Each vertex's connected component in the graph whose edges are the
    rows of ``pairs``, named by its smallest vertex: roots hook under the
    smaller root across an edge, then every vertex jumps to its root."""
    labels = np.arange(num_workers)
    heads, tails = pairs[:, 0], pairs[:, 1]
    while True:
        a, b = labels[heads], labels[tails]
        if np.array_equal(a, b):
            return labels
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := labels[labels], labels):
            labels = up


def _links(bandwidth: np.ndarray, lowest: float) -> np.ndarray:
    """Flat indices ``i * n + j`` (``i < j``) of B's links (positive
    pairs) at least ``lowest`` fast, ascending, listed a block of rows at
    a time so that no transient outgrows the result."""
    n = bandwidth.shape[0]
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    step = max(1, 2**16 // max(n, 1))
    blocks = []
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))[:, None]
        pairs = (rows * n + np.arange(n))[np.arange(n) > rows]
        speed = bandwidth.ravel()[pairs]
        blocks.append(pairs[(speed > 0) & (speed >= lowest)].astype(dtype))
    return np.concatenate(blocks or [np.empty(0, dtype)])


@dataclass
class PeerSelectionResult:
    """Outcome of one round of Algorithm 3."""

    matching: Matching
    num_workers: int
    used_fallback: bool = False  # True when the RC graph was disconnected
    second_pass_pairs: int = 0  # pairs matched ignoring bandwidth

    @property
    def gossip(self) -> np.ndarray:
        """``W_t``, built when read: training only needs the matching."""
        return gossip_matrix_from_matching(self.matching, self.num_workers)


class AdaptivePeerSelector:
    """Stateful Algorithm 3: owns ``B``, ``B*``, ``R`` and ``T_thres``.

    Parameters
    ----------
    bandwidth:
        Raw pairwise-speed matrix; symmetrized with ``min`` as in the
        paper.  NaN reads as no link, inf as the largest finite speed; a
        negative entry raises ``ValueError`` naming it.
    bandwidth_threshold:
        ``B_thres``; edges at or above it form the preferred graph
        ``B*``.  Pass ``None`` to use the median link speed (a practical
        default the paper leaves to the user).
    connectivity_gap:
        ``T_thres``: how many rounds an edge stays "recently connected".
        Rounds are expected in non-decreasing order.
    prefer_weighted:
        Extension switch: use bandwidth-greedy matching inside ``B*``
        instead of uniform random maximum matching.
    """

    def __init__(
        self,
        bandwidth: np.ndarray,
        bandwidth_threshold: Optional[float] = None,
        connectivity_gap: int = 20,
        rng: SeedLike = None,
        prefer_weighted: bool = False,
    ) -> None:
        bandwidth = check_square(np.asarray(bandwidth, dtype=np.float64))
        self.bandwidth = symmetrize_min(bandwidth)
        if self.bandwidth.min(initial=0.0) < 0:
            i, j = np.argwhere(self.bandwidth < 0)[0].tolist()
            if not bandwidth[i, j] < 0:
                i, j = j, i
            raise ValueError(
                "bandwidth must be non-negative (NaN reads as no link): "
                f"bandwidth[{i}, {j}] = {float(bandwidth[i, j])!r}"
            )
        self.num_workers = self.bandwidth.shape[0]
        if connectivity_gap < 1:
            raise ValueError(f"connectivity_gap must be at least 1, got {connectivity_gap}")
        self.connectivity_gap = int(connectivity_gap)
        if bandwidth_threshold is None:
            bandwidth_threshold = _median_link(self.bandwidth)
        self.bandwidth_threshold = float(bandwidth_threshold)
        # B*, as the blossom's input: no matcher pairs over a 0 (no) link.
        self._linked = self.bandwidth > 0
        self.filtered = (self.bandwidth >= self.bandwidth_threshold) & self._linked
        # Where B lacks a link, the graphs matched in closed form are not
        # complete (multipartite) and must be cut down to B's links.
        np.fill_diagonal(self._linked, True)
        if self._linked.all():
            self._linked = None
        self._rng = as_generator(rng)
        self.prefer_weighted = prefer_weighted
        # R: the recent rounds' matchings, oldest first, as (round, pairs).
        self._recent: Deque[Tuple[int, np.ndarray]] = deque()
        if prefer_weighted:
            # B's links and B*'s in ascending order (the order a round's tie
            # keys are drawn in), and the first greedy tier heaviest first
            # (B*'s share of it is a prefix).
            self._links = _links(self.bandwidth, 0.0)
            self._preferred = _links(self.bandwidth, self.bandwidth_threshold)
            self._heaviest = heaviest_links(
                self._links, self.bandwidth.ravel(), 8 * self.num_workers
            )

    def _match_multipartite(self, parts: np.ndarray, members: np.ndarray) -> Matching:
        """``RandomlyMaxMatch`` on the complete multipartite graph over
        ``members`` (``parts[v]`` names ``v``'s part): in closed form, or,
        where one of its pairs has no link, by the blossom on the linked
        subgraph.  Either way one permutation is drawn."""
        if self._linked is not None:
            graph = _restrict(parts[:, None] != parts, members)
            if (graph > self._linked).any():
                return randomly_max_match(graph & self._linked, rng=self._rng)
        return randomly_max_match_multipartite(parts, members, rng=self._rng)

    def _match(
        self, connected: bool, labels: np.ndarray, active: Optional[np.ndarray]
    ) -> Matching:
        n = self.num_workers
        everyone = np.ones(n, dtype=bool) if active is None else active
        if not self.prefer_weighted:
            if connected:
                return randomly_max_match(_restrict(self.filtered, active), rng=self._rng)
            return self._match_multipartite(labels, everyone)
        links = self._preferred if connected else self._links
        # A link is a candidate if it joins two active workers of distinct
        # parts: every B* link, in a connected round without churn.
        accept = None
        if not connected or active is not None:
            parts = np.arange(n) if connected else labels
            candidate = _restrict(parts[:, None] != parts, active).ravel()
            accept = candidate.__getitem__
        ranked = links if accept is None else links[accept(links)]
        match = greedy_matching_on_sorted(
            n, self._heaviest[: links.size], self.bandwidth.ravel(), ranked, accept, rng=self._rng
        )
        if connected and match.count(-1) < 2:  # nothing left for a blossom to search
            return [(v, u) for v, u in enumerate(match) if u > v]
        if connected:
            return max_cardinality_matching(_restrict(self.filtered, active), initial_match=match)
        sizes = np.bincount(labels[everyone])
        if (sizes.sum() ** 2 - (sizes**2).sum()) // 2 > ranked.size:
            # A no-link pair between components: the candidate graph is
            # not complete multipartite, so the blossom completes it.
            graph = candidate.reshape(n, n) & (self.bandwidth > 0)
            return max_cardinality_matching(graph, initial_match=match)
        return multipartite_max_matching(labels, everyone, initial_match=match)

    # ------------------------------------------------------------------
    # the per-round entry point (Algorithm 3 proper)
    # ------------------------------------------------------------------
    def select(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> PeerSelectionResult:
        """Run Algorithm 3 for round ``round_index``.

        ``active`` (optional boolean mask) excludes offline workers from
        the matching — the federated-churn case the paper's "R." column
        claims robustness to.  Offline workers get ``W_ii = 1``.

        Returns the matching (``W_t`` is built from it when read) and
        diagnostics.  Records the matching in ``R``.
        """
        started = perf_counter()
        n = self.num_workers
        with obs.phase("peer_selection"):
            recent = self._recent
            while recent and recent[0][0] <= round_index - self.connectivity_gap:
                recent.popleft()
            pairs = np.concatenate([p for _, p in recent] or [np.empty((0, 2), int)])
            # GetOvertimeMatrix's parts: components of the whole RC graph.
            labels = _component_labels(n, pairs)
            if active is None:
                connected = not labels.any()
            else:
                active = np.asarray(active, dtype=bool)
                # Connectivity is judged on the *active* subgraph — offline
                # workers cannot carry information this round.
                judged = _component_labels(n, pairs[active[pairs].all(axis=1)])[active]
                connected = not np.any(judged != judged[:1])
            with obs.phase("match"):
                matching = list(self._match(connected, labels, active))
            participants = n if active is None else int(active.sum())
            second_pass = 0
            if len(matching) != participants // 2:
                with obs.phase("second_pass"):
                    free = matching_to_partner_array(matching, n) == -1
                    if active is not None:
                        free &= active
                    # GetUnmatch: the free workers' complete graph.
                    extra = self._match_multipartite(np.arange(n), free)
                second_pass = len(extra)
                matching.extend(extra)
                matching.sort()
            recent.append((round_index, np.array(matching, dtype=np.int32).reshape(-1, 2)))
        obs.observe("peer_selection.select_ms", 1e3 * (perf_counter() - started))
        obs.inc("peer_selection.fallback_rounds", not connected)
        obs.inc("peer_selection.second_pass_pairs", second_pass)
        return PeerSelectionResult(
            matching, n, not connected, second_pass
        )


class RandomPeerSelector:
    """The paper's "RandomChoose" baseline (Fig. 5): uniform random
    maximum matching on the complete graph every round."""

    def __init__(self, num_workers: int, rng: SeedLike = None) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        self.num_workers = num_workers
        self._rng = as_generator(rng)

    def select(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> PeerSelectionResult:
        n = self.num_workers
        # The complete graph: every worker its own part.
        everyone = np.ones(n, dtype=bool) if active is None else np.asarray(active, dtype=bool)
        matching = randomly_max_match_multipartite(np.arange(n), everyone, rng=self._rng)
        return PeerSelectionResult(matching, n)


class FixedRingSelector:
    """Static pairing baseline derived from a ring order: alternates the
    two perfect matchings of an even cycle (rounds alternate odd/even
    edges), giving single-peer communication on a fixed topology."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 2 or num_workers % 2 != 0:
            raise ValueError("fixed ring pairing needs an even worker count")
        self.num_workers = num_workers

    def select(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> PeerSelectionResult:
        offset = round_index % 2
        matching = [
            (i, (i + 1) % self.num_workers)
            for i in range(offset, self.num_workers, 2)
        ]
        if active is not None:
            active = np.asarray(active, dtype=bool)
            # A fixed topology cannot re-pair around failures: any pair
            # with an offline member simply loses its exchange (the
            # brittleness the paper criticizes).
            matching = [
                (a, b) for a, b in matching if active[a] and active[b]
            ]
        matching = sorted((min(a, b), max(a, b)) for a, b in matching)
        return PeerSelectionResult(matching, self.num_workers)
