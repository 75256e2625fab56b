"""Tests for the multi-peer gossip generalization (degree-k trade-off)."""

import numpy as np
import pytest

from repro.core.multipeer import (
    MultiPeerSelector,
    gossip_from_neighbor_sets,
    neighbor_sets_from_matchings,
    union_of_matchings,
)
from repro.theory import estimate_rho
from tests.graphs import is_doubly_stochastic


class TestUnionOfMatchings:
    def test_edge_disjoint(self):
        matchings = union_of_matchings(10, 3, rng=0)
        seen = set()
        for matching in matchings:
            for edge in matching:
                assert edge not in seen
                seen.add(edge)

    def test_every_worker_gets_degree_neighbors(self):
        matchings = union_of_matchings(12, 4, rng=0)
        neighbors = neighbor_sets_from_matchings(matchings, 12)
        assert all(len(s) == 4 for s in neighbors)

    def test_degree_one_is_single_matching(self):
        matchings = union_of_matchings(8, 1, rng=0)
        assert len(matchings) == 1
        assert len(matchings[0]) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            union_of_matchings(1, 1)
        with pytest.raises(ValueError):
            union_of_matchings(6, 0)
        with pytest.raises(ValueError):
            union_of_matchings(6, 6)

    def test_deterministic_given_seed(self):
        a = union_of_matchings(8, 2, rng=5)
        b = union_of_matchings(8, 2, rng=5)
        assert a == b


class TestGossipFromNeighborSets:
    def test_doubly_stochastic_regular(self):
        matchings = union_of_matchings(8, 3, rng=0)
        neighbors = neighbor_sets_from_matchings(matchings, 8)
        gossip = gossip_from_neighbor_sets(neighbors, 8)
        assert is_doubly_stochastic(gossip)
        np.testing.assert_array_equal(gossip, gossip.T)

    def test_doubly_stochastic_irregular(self):
        neighbors = [{1, 2}, {0}, {0}]
        gossip = gossip_from_neighbor_sets(neighbors, 3)
        assert is_doubly_stochastic(gossip)
        # Metropolis weight between 0 (deg 2) and 1 (deg 1) is 1/3.
        assert gossip[0, 1] == pytest.approx(1.0 / 3.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            gossip_from_neighbor_sets([{1}, set(), set()], 3)

    def test_degree_one_matches_pairwise_averaging(self):
        matchings = union_of_matchings(6, 1, rng=0)
        neighbors = neighbor_sets_from_matchings(matchings, 6)
        gossip = gossip_from_neighbor_sets(neighbors, 6)
        # 1/(1+1) = 1/2 on matched pairs, 1/2 diagonal — exactly the
        # SAPS gossip matrix.
        for a, b in matchings[0]:
            assert gossip[a, b] == 0.5
            assert gossip[a, a] == 0.5


class TestMultiPeerSelector:
    def test_edges_count_scales_with_degree(self):
        for degree in [1, 2, 3]:
            selector = MultiPeerSelector(8, degree, rng=0)
            result = selector.select(0)
            assert len(result.matching) == degree * 4

    def test_gossip_valid(self):
        selector = MultiPeerSelector(10, 3, rng=0)
        for t in range(5):
            assert is_doubly_stochastic(selector.select(t).gossip)

    def test_rho_decreases_with_degree(self):
        """The paper's trade-off: more peers -> faster consensus
        (smaller rho) at proportionally more traffic."""
        rhos = {}
        for degree in [1, 3]:
            selector = MultiPeerSelector(12, degree, rng=1)
            rhos[degree] = estimate_rho(
                lambda t: selector.select(t).gossip, num_samples=150
            )
        assert rhos[3] < rhos[1] < 1.0

    def test_churn_not_supported(self):
        selector = MultiPeerSelector(6, 2, rng=0)
        with pytest.raises(NotImplementedError):
            selector.select(0, active=np.ones(6, dtype=bool))

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiPeerSelector(1, 1)
        with pytest.raises(ValueError):
            MultiPeerSelector(6, 0)
