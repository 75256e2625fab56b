"""Tests for the blossom matching implementation.

Maximum-cardinality results are cross-checked against networkx's
independent implementation, including on the classic blossom-requiring
graphs (odd cycles, Petersen graph).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.matching import (
    _skip_doubles,
    greedy_matching_on_sorted,
    heaviest_links,
    greedy_weighted_matching,
    is_valid_matching,
    matching_to_partner_array,
    max_cardinality_matching,
    multipartite_max_matching,
    randomly_max_match,
    randomly_max_match_multipartite,
)
from reference import matching as reference
from tests.conftest import scoped
from tests.graphs import adjacency_from_edges, complete_adjacency, ring_adjacency


def nx_max_matching_size(adjacency):
    graph = nx.from_numpy_array(np.asarray(adjacency, dtype=int))
    return len(nx.max_weight_matching(graph, maxcardinality=True))


class TestMaxCardinalityMatching:
    def test_single_edge(self):
        adjacency = adjacency_from_edges(2, [(0, 1)])
        assert max_cardinality_matching(adjacency) == [(0, 1)]

    def test_path_of_three(self):
        adjacency = adjacency_from_edges(3, [(0, 1), (1, 2)])
        match = max_cardinality_matching(adjacency)
        assert len(match) == 1

    def test_odd_cycle_needs_blossom(self):
        """A 5-cycle: maximum matching is 2; greedy alone can achieve it,
        but the augmentation path goes through a blossom."""
        adjacency = ring_adjacency(5)
        match = max_cardinality_matching(adjacency)
        assert len(match) == 2
        assert is_valid_matching(match, 5)

    def test_two_triangles_bridge(self):
        """Classic blossom test: two triangles joined by a bridge has a
        perfect matching on 6 vertices."""
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        adjacency = adjacency_from_edges(6, edges)
        match = max_cardinality_matching(adjacency)
        assert len(match) == 3

    def test_petersen_graph_perfect_matching(self):
        petersen = nx.petersen_graph()
        adjacency = nx.to_numpy_array(petersen).astype(bool)
        match = max_cardinality_matching(adjacency)
        assert len(match) == 5  # Petersen has a perfect matching

    def test_complete_graph_even(self):
        match = max_cardinality_matching(complete_adjacency(8))
        assert len(match) == 4
        assert is_valid_matching(match, 8)

    def test_complete_graph_odd_leaves_one(self):
        match = max_cardinality_matching(complete_adjacency(7))
        assert len(match) == 3

    def test_empty_graph(self):
        assert max_cardinality_matching(np.zeros((4, 4), dtype=bool)) == []

    @pytest.mark.parametrize("n", [0, 1])
    def test_graph_with_fewer_than_two_vertices(self, n):
        assert max_cardinality_matching(np.zeros((n, n), dtype=bool)) == []

    def test_star_graph(self):
        edges = [(0, i) for i in range(1, 6)]
        match = max_cardinality_matching(adjacency_from_edges(6, edges))
        assert len(match) == 1

    def test_asymmetric_rejected(self):
        bad = np.zeros((3, 3), dtype=bool)
        bad[0, 1] = True
        with pytest.raises(ValueError):
            max_cardinality_matching(bad)

    @pytest.mark.parametrize("n", [2, 8, 9, 17, 70])
    def test_every_asymmetric_pair_rejected(self, n):
        """Rows and columns are compared packed 8 to a byte: a lone
        one-way edge anywhere, the last partial byte included, is found."""
        for i, j in [(0, n - 1), (n - 1, 0), (n // 2 - 1, n - 1), (n - 2, n - 1)]:
            bad = complete_adjacency(n)
            bad[i, j] = False
            with pytest.raises(ValueError, match="symmetric"):
                max_cardinality_matching(bad)

    def test_self_loop_rejected(self):
        bad = np.eye(3, dtype=bool)
        with pytest.raises(ValueError):
            max_cardinality_matching(bad)

    def test_initial_match_extended(self):
        adjacency = ring_adjacency(6)
        initial = [-1] * 6
        initial[0], initial[1] = 1, 0
        match = max_cardinality_matching(adjacency, initial_match=initial)
        assert len(match) == 3

    def test_inconsistent_initial_match_rejected(self):
        adjacency = ring_adjacency(4)
        with pytest.raises(ValueError):
            max_cardinality_matching(adjacency, initial_match=[1, -1, -1, -1])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_networkx_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        density = rng.uniform(0.1, 0.7)
        upper = rng.random((n, n)) < density
        adjacency = np.triu(upper, 1)
        adjacency = adjacency | adjacency.T
        match = max_cardinality_matching(adjacency)
        assert is_valid_matching(match, n)
        assert len(match) == nx_max_matching_size(adjacency)
        for a, b in match:
            assert adjacency[a, b]


class TestRandomlyMaxMatch:
    def test_cardinality_is_maximum(self):
        adjacency = complete_adjacency(10)
        for seed in range(5):
            match = randomly_max_match(adjacency, rng=seed)
            assert len(match) == 5

    def test_randomization_varies_matchings(self):
        adjacency = complete_adjacency(8)
        matchings = {tuple(randomly_max_match(adjacency, rng=s)) for s in range(20)}
        assert len(matchings) > 1

    def test_edges_belong_to_graph(self):
        adjacency = ring_adjacency(9)
        match = randomly_max_match(adjacency, rng=0)
        for a, b in match:
            assert adjacency[a, b]

    def test_deterministic_given_seed(self):
        adjacency = complete_adjacency(6)
        assert randomly_max_match(adjacency, rng=3) == randomly_max_match(
            adjacency, rng=3
        )

    @given(st.integers(min_value=2, max_value=12), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_property_valid_and_maximum(self, n, seed):
        rng = np.random.default_rng(seed)
        upper = rng.random((n, n)) < 0.4
        adjacency = np.triu(upper, 1)
        adjacency = adjacency | adjacency.T
        match = randomly_max_match(adjacency, rng=seed)
        assert is_valid_matching(match, n)
        assert len(match) == nx_max_matching_size(adjacency)


class TestGreedyWeightedMatching:
    def test_prefers_heavy_edges(self):
        weights = np.zeros((4, 4))
        weights[0, 1] = weights[1, 0] = 10.0
        weights[2, 3] = weights[3, 2] = 10.0
        weights[1, 2] = weights[2, 1] = 100.0
        weights[0, 3] = weights[3, 0] = 1.0
        match = greedy_weighted_matching(weights, rng=0)
        assert (1, 2) in match  # heaviest edge taken first
        assert len(match) == 2  # completed to a perfect matching

    def test_empty_weights(self):
        assert greedy_weighted_matching(np.zeros((4, 4))) == []

    def test_maximum_cardinality_with_completion(self):
        rng = np.random.default_rng(0)
        weights = rng.random((10, 10))
        weights = np.triu(weights, 1)
        weights = weights + weights.T
        match = greedy_weighted_matching(weights, rng=0)
        assert len(match) == 5

    def test_without_completion_can_be_smaller(self):
        # Path 0-1-2-3 with heavy middle edge: greedy takes (1,2) and
        # cannot match 0 or 3 without augmentation, which always runs.
        weights = np.zeros((4, 4))
        for (a, b), w in {(0, 1): 1.0, (1, 2): 5.0, (2, 3): 1.0}.items():
            weights[a, b] = weights[b, a] = w
        short = reference.greedy_weighted_matching(weights, rng=0, complete_with_blossom=False)
        assert short == [(1, 2)]
        assert greedy_weighted_matching(weights, rng=0) == [(0, 1), (2, 3)]


    @pytest.mark.parametrize(
        "generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
    )
    @pytest.mark.parametrize("count", [0, 1, 523_776])
    def test_skipped_tie_keys_leave_the_drawn_state(self, generator, count):
        """A round without ties moves its generator as ``random(count)``
        would, a buffered 32-bit half included: jumped ahead on PCG64,
        drawn on the others."""
        drawn, skipped = (np.random.Generator(generator(7)) for _ in range(2))
        for rng in (drawn, skipped):
            rng.integers(0, 10, dtype=np.uint32)  # buffers the other half
        assert drawn.bit_generator.state["has_uint32"] == 1
        drawn.random(count)
        _skip_doubles(skipped, count)
        np.testing.assert_equal(skipped.bit_generator.state, drawn.bit_generator.state)
        assert drawn.integers(0, 2**32, 8, dtype=np.uint32).tolist() == (
            skipped.integers(0, 2**32, 8, dtype=np.uint32).tolist()
        )


class TestMatchingHelpers:
    def test_valid_matching_checks(self):
        assert is_valid_matching([(0, 1), (2, 3)], 4)
        assert not is_valid_matching([(0, 0)], 2)
        assert not is_valid_matching([(0, 1), (1, 2)], 3)
        assert not is_valid_matching([(0, 5)], 3)

    def test_partner_array(self):
        partners = matching_to_partner_array([(0, 2)], 4)
        np.testing.assert_array_equal(partners, [2, -1, 0, -1])

    def test_partner_array_rejects_invalid(self):
        with pytest.raises(ValueError):
            matching_to_partner_array([(0, 1), (1, 2)], 3)


# ----------------------------------------------------------------------
# the parent's matchers are the oracle (tests/reference/matching.py)
# ----------------------------------------------------------------------
def _symmetric(upper):
    upper = np.triu(upper, 1)
    return upper + upper.T


def _weights(rng, n, kind):
    if kind == "dense":
        return _symmetric(rng.random((n, n)))
    if kind == "sparse":
        density = rng.uniform(0.02, 0.3)
        return _symmetric(rng.random((n, n)) * (rng.random((n, n)) < density))
    if kind == "integer_tied":
        return _symmetric(rng.integers(0, 4, (n, n)).astype(np.float64))
    if kind == "min_cap":  # SampledSAPS: an edge is as fast as its slower end
        caps = rng.uniform(1.0, 100.0, n)
        weights = np.minimum(caps[:, None], caps[None, :])
        np.fill_diagonal(weights, 0.0)
        return weights
    assert kind == "zero_rows"
    weights = _symmetric(rng.random((n, n)))
    dead = rng.random(n) < 0.3
    weights[dead] = 0.0
    weights[:, dead] = 0.0
    return weights


def _graph(rng, n, kind):
    if kind == "random":
        return _symmetric(rng.random((n, n)) < rng.uniform(0.02, 0.6))
    parts = rng.integers(0, rng.integers(2, 6), n)
    graph = parts[:, None] != parts[None, :]  # complete multipartite
    if kind == "thinned_multipartite":
        graph = graph & _symmetric(rng.random((n, n)) < 0.7)
    return graph


def _partial_matching(graph, seed):
    """Every other pair of a greedy matching, as an ``initial_match``."""
    pairs = reference.greedy_weighted_matching(
        graph.astype(np.float64), rng=seed, complete_with_blossom=False
    )[::2]
    initial = [-1] * graph.shape[0]
    for a, b in pairs:
        initial[a], initial[b] = b, a
    return initial


class TestEqualsReference:
    """Same pairs and same RNG stream as the plain algorithms; ``n`` is
    drawn across the greedy tier boundary (8n edges: n ≈ 17) and past
    the blossom search's long-row threshold (64 neighbours)."""

    @given(
        st.integers(0, 10_000),
        st.integers(2, 200),
        st.sampled_from(["dense", "sparse", "integer_tied", "min_cap", "zero_rows"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_weighted_matching(self, seed, n, kind):
        weights = _weights(np.random.default_rng(seed), n, kind)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert greedy_weighted_matching(
            weights, rng=ours
        ) == reference.greedy_weighted_matching(weights, rng=theirs)
        assert ours.random() == theirs.random()

    @given(
        st.integers(0, 10_000),
        st.integers(2, 200),
        st.sampled_from(["random", "multipartite", "thinned_multipartite"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_core_on_a_selector_graph(self, seed, n, kind, masked):
        """Algorithm 3's weighted round: the core on B's links, its first
        tier cut as the selector cuts it (the candidates told by a
        predicate, so later tiers are masked), against the reference
        greedy on the dense ``B * graph`` — an ``active`` mask cut into
        the graph, B with planted equal links and zero links."""
        rng = np.random.default_rng(seed)
        graph = _graph(rng, n, kind)
        if masked:
            active = rng.random(n) < 0.8
            graph &= active[:, None] & active
        bandwidth = _symmetric(rng.uniform(1.0, 5.0, (n, n)))
        planted = _symmetric(rng.random((n, n)) < 0.3)
        bandwidth[planted] = rng.choice([0.0, 2.5, 4.0])
        weights = bandwidth.ravel()
        links = np.flatnonzero(np.triu(bandwidth, 1))
        heaviest = heaviest_links(links, weights, 8 * n)
        accepted = graph.ravel()
        ranked = links[accepted[links]]
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        match = greedy_matching_on_sorted(
            n, heaviest, weights, ranked, lambda edges: accepted[edges], rng=ours
        )
        pairs = max_cardinality_matching(graph & (bandwidth > 0), initial_match=match)
        assert pairs == reference.greedy_weighted_matching(bandwidth * graph, rng=theirs)
        assert ours.random() == theirs.random()

    @given(
        st.integers(0, 10_000),
        st.integers(2, 160),
        st.sampled_from(["random", "multipartite", "thinned_multipartite"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_blossom_matchers(self, seed, n, kind, warm):
        graph = _graph(np.random.default_rng(seed), n, kind)
        initial = _partial_matching(graph, seed) if warm else None
        assert max_cardinality_matching(
            graph, initial_match=initial
        ) == reference.max_cardinality_matching(graph, initial_match=initial)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert randomly_max_match(graph, rng=ours) == reference.randomly_max_match(
            graph, rng=theirs
        )
        assert ours.random() == theirs.random()

    @given(
        st.integers(0, 10_000),
        st.integers(2, 140),
        st.integers(1, 7),
        st.booleans(),
        st.sampled_from(["none", "warm", "greedy"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_multipartite_completion(self, seed, n, parts, majority, initial):
        """The closed-form warm start and completion reproduce the blossom
        on a complete multipartite graph restricted to an ``active``
        mask: 1–7 parts, a majority part or not, from no matching, from
        every other pair of a greedy one, or from a full greedy one."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, parts, n)
        if majority:
            labels[rng.random(n) < 0.7] = parts
        active = rng.random(n) < rng.choice([0.8, 1.0])
        graph = (labels[:, None] != labels) & active[:, None] & active
        match = None
        if initial == "warm":
            match = _partial_matching(graph, seed)
        elif initial == "greedy":
            pairs = reference.greedy_weighted_matching(
                rng.random((n, n)) * graph, rng=seed, complete_with_blossom=False
            )
            match = matching_to_partner_array(pairs, n).tolist()
        assert multipartite_max_matching(
            labels, active, initial_match=match
        ) == reference.max_cardinality_matching(graph, initial_match=match)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert randomly_max_match_multipartite(
            labels, active, rng=ours
        ) == reference.randomly_max_match(graph, rng=theirs)
        assert ours.random() == theirs.random()

    @given(st.integers(0, 10_000), st.integers(1, 160))
    @settings(max_examples=60, deadline=None)
    def test_second_pass_pairs_in_permuted_order(self, seed, n):
        """Every vertex its own part: the complete graph over the free
        vertices, Algorithm 3's ``GetUnmatch``."""
        rng = np.random.default_rng(seed)
        free = rng.random(n) < rng.uniform(0.1, 1.0)
        graph = free[:, None] & free
        np.fill_diagonal(graph, False)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert randomly_max_match_multipartite(
            np.arange(n), free, rng=ours
        ) == reference.randomly_max_match(graph, rng=theirs)
        assert ours.random() == theirs.random()

    def test_surplus_part_costs_one_search_not_one_per_vertex(self):
        """Complete bipartite 40 / 200 from an empty matching: every free
        vertex of the large part has the same row, so once one search
        from it fails the other surplus vertices are skipped."""
        rng = np.random.default_rng(0)
        small = np.zeros(240, dtype=bool)
        small[rng.permutation(240)[:40]] = True
        graph = small[:, None] != small[None, :]
        with scoped(obs.MetricsRecorder()) as recorder:
            match = max_cardinality_matching(graph, initial_match=[-1] * 240)
        counters = recorder.registry.snapshot()["counters"]
        assert match == reference.max_cardinality_matching(
            graph, initial_match=[-1] * 240
        )
        augmentations, parts = len(match), 2
        assert augmentations == 40
        assert counters["matching.augment_searches"] <= parts + augmentations
        assert counters["matching.searches_skipped"] >= 150

    def test_nothing_is_searched_with_fewer_than_two_free_vertices(self):
        with scoped(obs.MetricsRecorder()) as recorder:
            assert len(max_cardinality_matching(complete_adjacency(7))) == 3
        counters = recorder.registry.snapshot()["counters"]
        assert counters["matching.augment_searches"] == 0
        assert counters["matching.searches_skipped"] == 0


class TestGreedyWeightedMatchingValidation:
    """Bad weights fail before the first draw, naming the entry."""

    @pytest.mark.parametrize(
        "value, named",
        [(np.nan, "nan"), (-1.0, "-1.0"), (np.inf, "inf")],
    )
    def test_not_finite_or_negative(self, value, named):
        weights = _symmetric(np.random.default_rng(0).random((5, 5)))
        weights[1, 3] = weights[3, 1] = value
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"weights\[1, 3\] = " + named):
            greedy_weighted_matching(weights, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("upper", [True, False])
    def test_asymmetric_support(self, upper):
        """Used to surface only if the blossom completion happened to run;
        the zero may sit on either side of the diagonal."""
        weights = _symmetric(np.ones((4, 4)))
        weights[(0, 2) if upper else (2, 0)] = 0.0
        with pytest.raises(ValueError, match=r"weights\[0, 2\]"):
            greedy_weighted_matching(weights, rng=0)

    def test_all_zero_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert greedy_weighted_matching(np.zeros((6, 6)), rng=rng) == []
        assert rng.random() == np.random.default_rng(0).random()
