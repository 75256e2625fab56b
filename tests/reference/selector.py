"""The dense Algorithm 3 — the oracle the shipped selector must equal.

``repro.core.gossip.AdaptivePeerSelector`` keeps ``R`` as a ring of the
recent matchings, reads ``B``'s links from one list sorted at
construction and completes a fallback round's matching in closed form.
:class:`ReferenceSelector` is Algorithm 3 as it stood before: a dense
``(n, n)`` timestamp matrix ``R``; the RC graph, ``GetOvertimeMatrix``
and ``GetUnmatch`` rebuilt as ``(n, n)`` bool graphs every round; and
the plain matchers of ``tests/reference/matching.py`` run on them (the
weighted one on the dense ``B * graph``).  No graph it matches keeps
a pair with no link (``B_ij = 0``).  Same constructor, same ``select``;
nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.gossip import PeerSelectionResult, _median_link
from repro.core.matching import Matching, matching_to_partner_array
from repro.network.bandwidth import symmetrize_min
from repro.utils.rng import SeedLike, as_generator
from tests.graphs import connected_components, is_connected, threshold_graph
from tests.reference import matching as plain


def _restrict(graph: np.ndarray, active: Optional[np.ndarray]) -> np.ndarray:
    if active is None:
        return graph
    return graph & (active[:, None] & active)


class ReferenceSelector:
    """Algorithm 3 on dense state; see the module docstring."""

    def __init__(
        self,
        bandwidth: np.ndarray,
        bandwidth_threshold: Optional[float] = None,
        connectivity_gap: int = 20,
        rng: SeedLike = None,
        prefer_weighted: bool = False,
    ) -> None:
        self.bandwidth = symmetrize_min(np.asarray(bandwidth, dtype=np.float64))
        self.num_workers = self.bandwidth.shape[0]
        self.connectivity_gap = int(connectivity_gap)
        if bandwidth_threshold is None:
            bandwidth_threshold = _median_link(self.bandwidth)
        self.filtered = threshold_graph(self.bandwidth, float(bandwidth_threshold))
        self._rng = as_generator(rng)
        self.prefer_weighted = prefer_weighted
        # R: last-communication rounds, far in the past at round 0.
        self.timestamps = np.full(
            (self.num_workers, self.num_workers), -10 * self.connectivity_gap - 1,
            dtype=np.int64,
        )

    def recently_connected(self, round_index: int) -> np.ndarray:
        """``IfConnected``'s Q matrix: edges with ``R_ij > t − T_thres``."""
        rc = self.timestamps > (round_index - self.connectivity_gap)
        rc |= rc.T
        np.fill_diagonal(rc, False)
        return rc

    def overtime_matrix(self, rc: np.ndarray) -> np.ndarray:
        """``GetOvertimeMatrix``: edges between distinct RC components."""
        labels = np.zeros(self.num_workers, dtype=np.int64)
        for label, component in enumerate(connected_components(rc)):
            labels[component] = label
        return labels[:, None] != labels

    def _match(self, graph: np.ndarray) -> Matching:
        graph = graph & (self.bandwidth > 0)
        if self.prefer_weighted:
            return plain.greedy_weighted_matching(self.bandwidth * graph, rng=self._rng)
        return plain.randomly_max_match(graph, rng=self._rng)

    def select(
        self, round_index: int, active: Optional[np.ndarray] = None
    ) -> PeerSelectionResult:
        n = self.num_workers
        rc = self.recently_connected(round_index)
        if active is None:
            connected = is_connected(rc)
        else:
            active = np.asarray(active, dtype=bool)
            connected = is_connected(rc[np.ix_(active, active)])
        candidate = self.filtered if connected else self.overtime_matrix(rc)
        matching = list(self._match(_restrict(candidate, active)))
        participants = n if active is None else int(active.sum())
        second_pass = 0
        if len(matching) != participants // 2:
            # GetUnmatch: the complete graph over the free (active) workers.
            free = matching_to_partner_array(matching, n) == -1
            if active is not None:
                free &= active
            graph = free[:, None] & free
            np.fill_diagonal(graph, False)
            extra = plain.randomly_max_match(graph & (self.bandwidth > 0), rng=self._rng)
            second_pass = len(extra)
            matching.extend(extra)
            matching.sort()
        for a, b in matching:
            self.timestamps[a, b] = self.timestamps[b, a] = round_index
        return PeerSelectionResult(matching, n, not connected, second_pass)
