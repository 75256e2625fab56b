"""Tests for Algorithm 3 (adaptive peer selection) and gossip matrices."""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core.gossip import (
    AdaptivePeerSelector,
    FixedRingSelector,
    RandomPeerSelector,
    gossip_matrix_from_matching,
    ring_gossip_matrix,
)
from repro.core import matching as matching_module
from repro.core.matching import is_valid_matching
from repro.network.bandwidth import random_uniform_bandwidth
from repro.theory.spectral import second_largest_eigenvalue
from tests.conftest import cut_links, scoped
from tests.graphs import adjacency_from_edges, is_connected, is_doubly_stochastic
from tests.reference.selector import ReferenceSelector


def recently_connected(selector, round_index):
    """The RC graph ``select(round_index)`` judges: the union of the
    recorded matchings of rounds after ``round_index − T_thres``."""
    edges = [
        pair for stamp, pairs in selector._recent
        if stamp > round_index - selector.connectivity_gap
        for pair in pairs.tolist()
    ]
    return adjacency_from_edges(selector.num_workers, edges)


class TestGossipMatrixFromMatching:
    def test_matched_pairs_average(self):
        gossip = gossip_matrix_from_matching([(0, 1)], 2)
        np.testing.assert_array_equal(gossip, [[0.5, 0.5], [0.5, 0.5]])

    def test_unmatched_worker_keeps_model(self):
        gossip = gossip_matrix_from_matching([(0, 1)], 3)
        assert gossip[2, 2] == 1.0
        assert gossip[2, 0] == gossip[2, 1] == 0.0

    def test_doubly_stochastic(self):
        gossip = gossip_matrix_from_matching([(0, 3), (1, 2)], 5)
        assert is_doubly_stochastic(gossip)

    def test_symmetric(self):
        gossip = gossip_matrix_from_matching([(0, 2), (1, 3)], 4)
        np.testing.assert_array_equal(gossip, gossip.T)

    def test_each_row_two_nonzeros(self):
        """Section II-C: "each row in our gossip matrix has only two
        non-zero elements" (matched workers)."""
        gossip = gossip_matrix_from_matching([(0, 1), (2, 3)], 4)
        np.testing.assert_array_equal((gossip != 0).sum(axis=1), [2, 2, 2, 2])


class TestRingGossipMatrix:
    def test_doubly_stochastic(self):
        assert is_doubly_stochastic(ring_gossip_matrix(8))

    def test_spectral_gap_positive(self):
        rho = second_largest_eigenvalue(ring_gossip_matrix(8))
        assert rho < 1.0

    def test_too_small_ring(self):
        with pytest.raises(ValueError):
            ring_gossip_matrix(2)


class TestAdaptivePeerSelector:
    @pytest.fixture
    def bandwidth(self):
        return random_uniform_bandwidth(8, rng=0)

    def test_perfect_matching_every_round(self, bandwidth):
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        for t in range(30):
            result = selector.select(t)
            assert len(result.matching) == 4
            assert is_valid_matching(result.matching, 8)
            assert is_doubly_stochastic(result.gossip)

    def test_odd_worker_count_leaves_one_unmatched(self):
        bandwidth = random_uniform_bandwidth(7, rng=0)
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        result = selector.select(0)
        assert len(result.matching) == 3
        assert is_doubly_stochastic(result.gossip)

    def test_matching_is_recorded_for_its_round(self, bandwidth):
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        result = selector.select(5)
        (stamp, pairs), = selector._recent
        assert stamp == 5
        assert pairs.tolist() == [list(pair) for pair in result.matching]

    def test_first_round_uses_fallback(self, bandwidth):
        """Round 0 has an empty RC graph (disconnected), so Algorithm 3
        takes the cross-subgraph branch."""
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        assert selector.select(0).used_fallback

    def test_rc_edges_eventually_connect(self, bandwidth):
        """Over T_thres rounds, the selector must keep the union of
        recently-used edges connected (Assumption 3's mechanism)."""
        selector = AdaptivePeerSelector(bandwidth, connectivity_gap=10, rng=0)
        for t in range(40):
            selector.select(t)
        assert is_connected(recently_connected(selector, 40))

    def test_prefers_filtered_edges_when_connected(self, bandwidth):
        """After warm-up, matchings should be drawn from B* (links at or
        above the threshold) in non-fallback rounds."""
        threshold = float(np.median(bandwidth[~np.eye(8, dtype=bool)]))
        selector = AdaptivePeerSelector(
            bandwidth, bandwidth_threshold=threshold, connectivity_gap=50, rng=0
        )
        above = 0
        checked = 0
        for t in range(60):
            result = selector.select(t)
            if t < 10 or result.used_fallback or result.second_pass_pairs:
                continue
            checked += 1
            for a, b in result.matching:
                assert bandwidth[a, b] >= threshold
                above += 1
        assert checked > 0

    def test_higher_bandwidth_than_random(self, bandwidth):
        """Fig. 5's headline: adaptive selection picks better links than
        random matching on average."""
        adaptive = AdaptivePeerSelector(bandwidth, connectivity_gap=20, rng=0)
        random_selector = RandomPeerSelector(8, rng=0)

        def mean_bottleneck(selector, rounds=100):
            values = []
            for t in range(rounds):
                matching = selector.select(t).matching
                values.append(min(bandwidth[a, b] for a, b in matching))
            return float(np.mean(values))

        assert mean_bottleneck(adaptive) > mean_bottleneck(random_selector)

    def test_default_threshold_is_median(self, bandwidth):
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        expected = float(np.median(bandwidth[~np.eye(8, dtype=bool)]))
        assert selector.bandwidth_threshold == pytest.approx(expected)

    def test_invalid_gap(self, bandwidth):
        with pytest.raises(ValueError):
            AdaptivePeerSelector(bandwidth, connectivity_gap=0)

    @pytest.mark.parametrize("prefer_weighted", [False, True])
    @pytest.mark.parametrize("entry", [(0, 1), (3, 2)])
    def test_negative_bandwidth_is_refused_at_construction(
        self, bandwidth, prefer_weighted, entry
    ):
        """It used to construct, and only the weighted matcher's first
        ``select`` failed; the default matcher never noticed."""
        bandwidth = bandwidth.copy()
        bandwidth[entry] = -1.0
        i, j = entry
        with pytest.raises(ValueError, match=rf"bandwidth\[{i}, {j}\] = -1\.0"):
            AdaptivePeerSelector(bandwidth, rng=0, prefer_weighted=prefer_weighted)

    def test_nan_is_no_link_and_inf_the_fastest(self, bandwidth):
        bandwidth = bandwidth.copy()
        bandwidth[0, 1] = bandwidth[1, 0] = np.nan
        bandwidth[2, 3] = bandwidth[3, 2] = np.inf
        np.fill_diagonal(bandwidth, np.nan)
        selector = AdaptivePeerSelector(bandwidth, rng=0, prefer_weighted=True)
        assert selector.bandwidth[0, 1] == 0.0
        assert selector.bandwidth[2, 3] == np.finfo(np.float64).max
        assert np.all(np.diag(selector.bandwidth) == 0.0)
        assert len(selector.select(0).matching) == 4

    def test_gap_allocates_nothing_per_possible_round(self, bandwidth):
        """``T_thres`` may exceed any run: ``R`` holds the rounds played,
        not one slot per round of the gap."""
        selector = AdaptivePeerSelector(bandwidth, connectivity_gap=10**12, rng=0)
        for t in range(5):
            selector.select(t)
        assert [stamp for stamp, _ in selector._recent] == list(range(5))
        short = AdaptivePeerSelector(bandwidth, connectivity_gap=3, rng=0)
        for t in range(5):
            short.select(t)
        assert [stamp for stamp, _ in short._recent] == [2, 3, 4]

    def test_default_threshold_equals_np_median_bit_for_bit(self):
        """Read off the upper triangle, for an even and an odd number of
        links, ties and zero links included."""
        rng = np.random.default_rng(3)
        for n, tied in itertools.product((2, 3, 5, 6, 33, 64), (False, True)):
            values = rng.integers(0, 4, (n, n)) * rng.random() if tied else rng.random((n, n))
            upper = np.triu(values, 1)
            bandwidth = upper + upper.T
            expected = float(np.median(bandwidth[~np.eye(n, dtype=bool)]))
            assert AdaptivePeerSelector(bandwidth).bandwidth_threshold == expected

    def test_overtime_matrix_links_components(self):
        """With (0, 1) and (2, 3) recently connected, the fallback round
        matches only across the two components, under either matcher."""
        bandwidth = np.ones((4, 4)) - np.eye(4)
        for prefer_weighted in (False, True):
            selector = AdaptivePeerSelector(
                bandwidth, connectivity_gap=5, rng=0, prefer_weighted=prefer_weighted
            )
            selector._recent.append((9, np.array([[0, 1], [2, 3]])))
            result = selector.select(10)
            assert result.used_fallback and result.second_pass_pairs == 0
            assert result.matching in ([(0, 2), (1, 3)], [(0, 3), (1, 2)])

    def test_unmatched_workers_pair_in_the_second_pass(self):
        """``GetUnmatch``: a fallback round whose cross-component edges
        cannot cover every worker pairs the rest ignoring link speed."""
        bandwidth = np.ones((6, 6)) - np.eye(6)
        selector = AdaptivePeerSelector(bandwidth, connectivity_gap=5, rng=0)
        selector._recent.append((9, np.array([[0, 1], [1, 2], [2, 3], [3, 4]])))
        result = selector.select(10)
        # One edge leaves {0..4} (to 5); the other four workers pair up blind.
        assert result.used_fallback and result.second_pass_pairs == 2
        assert len(result.matching) == 3

    @pytest.mark.parametrize("prefer_weighted", [False, True])
    def test_no_pair_matched_over_a_missing_link(self, prefer_weighted):
        """0 MB/s is no link: a fallback round's matching (closed form
        over the RC components) and GetUnmatch's second pass pair only
        linked workers, from the very first round."""
        for seed in range(100):
            bandwidth = cut_links(seed)
            selector = AdaptivePeerSelector(
                bandwidth, connectivity_gap=3, rng=seed, prefer_weighted=prefer_weighted
            )
            for t in range(6):
                for a, b in selector.select(t).matching:
                    assert bandwidth[a, b] > 0, (seed, t, a, b)

    def test_weighted_variant_runs(self, bandwidth):
        selector = AdaptivePeerSelector(bandwidth, rng=0, prefer_weighted=True)
        for t in range(10):
            result = selector.select(t)
            assert len(result.matching) == 4


class TestRandomPeerSelector:
    def test_perfect_matchings(self):
        selector = RandomPeerSelector(10, rng=0)
        for t in range(10):
            result = selector.select(t)
            assert len(result.matching) == 5
            assert is_doubly_stochastic(result.gossip)

    def test_variability(self):
        selector = RandomPeerSelector(8, rng=0)
        assert len({tuple(selector.select(t).matching) for t in range(15)}) > 1


class TestFixedRingSelector:
    def test_alternates_two_matchings(self):
        selector = FixedRingSelector(6)
        even = selector.select(0).matching
        odd = selector.select(1).matching
        assert even == [(0, 1), (2, 3), (4, 5)]
        assert odd == [(0, 5), (1, 2), (3, 4)]
        assert selector.select(2).matching == even

    def test_union_is_connected(self):
        """Both matchings together form the ring — the PC-edge
        connectivity Assumption 3 asks for."""
        selector = FixedRingSelector(8)
        edges = selector.select(0).matching + selector.select(1).matching
        assert is_connected(adjacency_from_edges(8, edges))

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            FixedRingSelector(5)


class TestSelectorEqualsReferenceMatchers:
    """The shipped selector (ring of matchings, presorted links, closed-form
    fallback completion) makes the decisions of the dense Algorithm 3
    over the plain matchers, ``tests/reference/selector.py``: the same
    matchings, fallbacks, second passes and generator state."""

    def run_both(self, bandwidth, rounds, masks=None, **kwargs):
        shipped, plain = AdaptivePeerSelector(bandwidth, **kwargs), ReferenceSelector(
            bandwidth, **kwargs
        )
        outcomes = []
        for t in range(rounds):
            active = None if masks is None else masks[t]
            ours, theirs = shipped.select(t, active=active), plain.select(t, active=active)
            assert ours.matching == theirs.matching, t
            assert all(shipped.bandwidth[a, b] > 0 for a, b in ours.matching), t
            assert ours.used_fallback == theirs.used_fallback, t
            assert ours.second_pass_pairs == theirs.second_pass_pairs, t
            gossip = ours.gossip  # built on demand
            np.testing.assert_array_equal(gossip, gossip.T)
            assert is_doubly_stochastic(gossip)
            if active is not None:
                offline = np.flatnonzero(~active)
                assert np.all(gossip[offline, offline] == 1.0)
            outcomes.append((ours.used_fallback, ours.second_pass_pairs > 0))
        assert shipped._rng.random() == plain._rng.random()
        return outcomes

    @pytest.mark.parametrize("prefer_weighted", [False, True])
    @pytest.mark.parametrize("churn", [False, True])
    def test_25_rounds_at_128_workers(self, prefer_weighted, churn):
        """25 rounds of ``T_thres`` = 6: start-up fallbacks, connected
        rounds and the expiry fallbacks after them."""
        bandwidth = random_uniform_bandwidth(128, rng=1)
        masks = np.random.default_rng(1).random((25, 128)) < 0.8
        outcomes = self.run_both(
            bandwidth, 25, masks if churn else None,
            connectivity_gap=6, rng=1, prefer_weighted=prefer_weighted,
        )
        # The run must have exercised what it claims to compare.
        assert {True, False} == {fallback for fallback, _ in outcomes}
        assert any(second for _, second in outcomes)

    @pytest.mark.parametrize("prefer_weighted", [False, True])
    @pytest.mark.parametrize("churn", [False, True])
    @pytest.mark.parametrize("links", ["integer", "nan_and_zero"])
    def test_ties_and_missing_links(self, prefer_weighted, churn, links):
        """Integer-valued B (the greedy's tiers full of ties) and B with
        NaN and zero links (the fallback and second-pass graphs are then
        not complete (multipartite), and the blossom matches their
        linked pairs), at an odd n."""
        rng = np.random.default_rng(2)
        n = 67
        bandwidth = np.ceil(random_uniform_bandwidth(n, low=1.0, rng=2))
        if links == "nan_and_zero":
            bandwidth[rng.random((n, n)) < 0.15] = np.nan
            bandwidth[rng.random((n, n)) < 0.15] = 0.0
        masks = rng.random((20, n)) < 0.85
        outcomes = self.run_both(
            bandwidth, 20, masks if churn else None,
            connectivity_gap=4, rng=2, prefer_weighted=prefer_weighted,
        )
        assert any(fallback for fallback, _ in outcomes)

    @pytest.mark.parametrize("generator", [np.random.PCG64, np.random.MT19937])
    @pytest.mark.parametrize("links", ["distinct", "integer", "no_link"])
    def test_lazy_tie_keys_leave_the_reference_generator_state(
        self, monkeypatch, links, generator
    ):
        """The weighted greedy draws its tie keys only in a round whose
        scanned tiers tie, and otherwise jumps a PCG64 ahead by as many
        steps (another generator draws them): after every round the
        matchings and ``bit_generator.state`` equal the reference's, whose
        greedy always draws.  Rounds alternate with churn, so second
        passes permute and some skips start with a buffered 32-bit half
        (``has_uint32 = 1``), which the jump must keep."""
        n = 67
        bandwidth = random_uniform_bandwidth(n, low=1.0, rng=3)
        if links == "integer":
            bandwidth = np.ceil(bandwidth)  # tiers full of ties
        elif links == "no_link":
            bandwidth = cut_links(3, n, cuts=300)
        masks = np.random.default_rng(3).random((30, n)) < 0.85
        selectors = [
            cls(bandwidth, connectivity_gap=4, rng=np.random.Generator(generator(3)),
                prefer_weighted=True)
            for cls in (AdaptivePeerSelector, ReferenceSelector)
        ]
        skip, buffered = matching_module._skip_doubles, []

        def spy(rng, count):
            buffered.append(rng.bit_generator.state.get("has_uint32"))
            skip(rng, count)

        monkeypatch.setattr(matching_module, "_skip_doubles", spy)
        for t in range(30):
            ours, theirs = (s.select(t, masks[t] if t % 2 else None) for s in selectors)
            assert ours.matching == theirs.matching, t
            np.testing.assert_equal(
                *(s._rng.bit_generator.state for s in selectors), err_msg=str(t)
            )
        # Each kind ran what it is here for: skips with a buffered half
        # (MT19937 keeps none), and (integer speeds) rounds that drew keys.
        assert 1 in buffered or generator is np.random.MT19937
        assert len(buffered) < 30 if links == "integer" else len(buffered) == 30

    def test_selection_is_recorded_only_when_asked(self):
        selector = AdaptivePeerSelector(random_uniform_bandwidth(8, rng=0), rng=0)
        selector.select(0)  # null recorder: nothing to record into
        with scoped(obs.MetricsRecorder()) as recorder:
            results = [selector.select(t) for t in range(1, 6)]
        snapshot = recorder.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["phase.peer_selection.count"] == 5
        assert counters["phase.match.count"] == 5
        assert snapshot["histograms"]["peer_selection.select_ms"]["count"] == 5
        assert counters["peer_selection.fallback_rounds"] == sum(
            r.used_fallback for r in results
        )
        assert counters["peer_selection.second_pass_pairs"] == sum(
            r.second_pass_pairs for r in results
        )
