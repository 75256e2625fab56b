"""Gossip-matrix generation with adaptive peer selection (Algorithm 3).

Per round ``t`` the coordinator produces a perfect (or maximum) matching
over the workers and converts it to the doubly-stochastic gossip matrix
``W_t`` (``W_ii = W_ij = 1/2`` for matched pairs — each worker averages
with exactly one peer).

Peer selection is *adaptive*:

1. A timestamp matrix ``R`` records when each pair last communicated; an
   edge is "recently connected" (RC) when ``R_ij > t − T_thres``.
2. If the RC edges span a connected graph, match on the
   bandwidth-filtered graph ``B* = [B ≥ B_thres]`` — preferring
   high-bandwidth links (Algorithm 1's ``GetNewConnectedGraph``).
3. Otherwise match on edges *between* RC-connected sub-graphs
   (``GetOvertimeMatrix``) to restore long-run connectivity — the
   mechanism that keeps the second-largest eigenvalue of ``E[WᵀW]``
   below 1 (Assumption 3).
4. Any still-unmatched workers are matched ignoring bandwidth
   (``GetUnmatch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from repro import obs
from repro.core.matching import (
    Matching,
    greedy_weighted_matching,
    matching_to_partner_array,
    randomly_max_match,
)
from repro.network.topology import (
    connected_components,
    is_connected,
    threshold_graph,
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
        paper.
    bandwidth_threshold:
        ``B_thres``; edges at or above it form the preferred graph
        ``B*``.  Pass ``None`` to use the median link speed (a practical
        default the paper leaves to the user).
    connectivity_gap:
        ``T_thres``: how many rounds an edge stays "recently connected".
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
        self.num_workers = self.bandwidth.shape[0]
        if connectivity_gap <= 0:
            raise ValueError(
                f"connectivity_gap must be positive, got {connectivity_gap}"
            )
        self.connectivity_gap = int(connectivity_gap)
        off_diagonal = self.bandwidth[
            ~np.eye(self.num_workers, dtype=bool)
        ]
        if bandwidth_threshold is None:
            bandwidth_threshold = float(np.median(off_diagonal))
        self.bandwidth_threshold = float(bandwidth_threshold)
        self.filtered = threshold_graph(self.bandwidth, self.bandwidth_threshold)
        self._rng = as_generator(rng)
        self.prefer_weighted = prefer_weighted
        # R: last-communication timestamps.  Initialized far in the past
        # so round 0 starts with an empty RC graph.
        self.timestamps = np.full(
            (self.num_workers, self.num_workers), -10 * self.connectivity_gap - 1,
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Algorithm 3 sub-procedures
    # ------------------------------------------------------------------
    def recently_connected(self, round_index: int) -> np.ndarray:
        """``IfConnected``'s Q matrix: edges with
        ``R_ij > t − T_thres``."""
        rc = self.timestamps > (round_index - self.connectivity_gap)
        rc |= rc.T
        np.fill_diagonal(rc, False)
        return rc

    def overtime_matrix(
        self, round_index: int, rc: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``GetOvertimeMatrix``: edges between distinct RC components."""
        if rc is None:
            rc = self.recently_connected(round_index)
        labels = np.zeros(self.num_workers, dtype=np.int64)
        for label, component in enumerate(connected_components(rc)):
            labels[component] = label
        return labels[:, None] != labels

    @staticmethod
    def unmatched_graph(
        matching: Matching, num_workers: int, active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``GetUnmatch``: complete graph over the (``active``) workers
        missing from ``matching``."""
        free = matching_to_partner_array(matching, num_workers) == -1
        if active is not None:
            free &= np.asarray(active, dtype=bool)
        graph = free[:, None] & free
        np.fill_diagonal(graph, False)
        return graph

    def _match(self, graph: np.ndarray) -> Matching:
        if self.prefer_weighted:
            return greedy_weighted_matching(self.bandwidth * graph, rng=self._rng)
        return randomly_max_match(graph, rng=self._rng)

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
        diagnostics.  Updates the timestamp matrix ``R`` for matched pairs.
        """
        started = perf_counter()
        with obs.phase("peer_selection"):
            rc = self.recently_connected(round_index)  # the round's one RC graph
            if active is None:
                connected = is_connected(rc)
            else:
                active = np.asarray(active, dtype=bool)
                # Connectivity is judged on the *active* subgraph — offline
                # workers cannot carry information this round.
                connected = is_connected(rc[np.ix_(active, active)])
            candidate = (
                self.filtered if connected else self.overtime_matrix(round_index, rc)
            )
            with obs.phase("match"):
                matching = list(self._match(_restrict(candidate, active)))
            participants = self.num_workers if active is None else int(active.sum())
            second_pass = 0
            if len(matching) != participants // 2:
                with obs.phase("second_pass"):
                    free = self.unmatched_graph(matching, self.num_workers, active)
                    extra = randomly_max_match(free, rng=self._rng)
                second_pass = len(extra)
                matching.extend(extra)
                matching.sort()

            for a, b in matching:
                self.timestamps[a, b] = self.timestamps[b, a] = round_index
        obs.observe("peer_selection.select_ms", 1e3 * (perf_counter() - started))
        obs.inc("peer_selection.fallback_rounds", not connected)
        obs.inc("peer_selection.second_pass_pairs", second_pass)
        return PeerSelectionResult(
            matching, self.num_workers, not connected, second_pass
        )


class RandomPeerSelector:
    """The paper's "RandomChoose" baseline (Fig. 5): uniform random
    maximum matching on the complete graph every round."""

    def __init__(self, num_workers: int, rng: SeedLike = None) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        self.num_workers = num_workers
        self._rng = as_generator(rng)
        self._complete = ~np.eye(num_workers, dtype=bool)

    def select(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> PeerSelectionResult:
        matching = randomly_max_match(_restrict(self._complete, active), rng=self._rng)
        return PeerSelectionResult(matching, self.num_workers)


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
