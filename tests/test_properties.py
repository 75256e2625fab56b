"""Hypothesis property-based tests on the core invariants.

Focus: properties the paper's correctness rests on — mask determinism and
density, gossip matrices doubly stochastic, matchings valid, error
feedback lossless, flat-vector round trips.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.topk import TopKCompressor, top_k_indices
from repro.compression.random_mask import generate_mask
from repro.core.gossip import gossip_matrix_from_matching
from repro.core.matching import (
    is_valid_matching,
    matching_to_partner_array,
    max_cardinality_matching,
    randomly_max_match,
)
from tests.graphs import is_doubly_stochastic
from repro.utils.flat import flatten_arrays, param_specs, unflatten_vector
from repro.utils.rng import derive_seed
from tests.reference.error_feedback import ErrorFeedback


finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestMaskProperties:
    @given(
        size=st.integers(0, 5000),
        ratio=st.floats(1.0, 1000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_deterministic(self, size, ratio, seed):
        np.testing.assert_array_equal(
            generate_mask(size, ratio, seed), generate_mask(size, ratio, seed)
        )

    @given(ratio=st.floats(1.0, 50.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_mask_density_near_1_over_c(self, ratio, seed):
        mask = generate_mask(100_000, ratio, seed)
        expected = 1.0 / ratio
        tolerance = 5 * np.sqrt(expected * (1 - expected) / 100_000) + 1e-9
        assert abs(mask.mean() - expected) < tolerance


class TestMatchingProperties:
    @given(
        n=st.integers(1, 20),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matching_always_valid_and_in_graph(self, n, density, seed):
        rng = np.random.default_rng(seed)
        upper = rng.random((n, n)) < density
        adjacency = np.triu(upper, 1)
        adjacency = adjacency | adjacency.T
        match = max_cardinality_matching(adjacency)
        assert is_valid_matching(match, n)
        for a, b in match:
            assert adjacency[a, b]

    @given(n=st.integers(2, 16), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_complete_graph_matching_is_perfect(self, n, seed):
        adjacency = ~np.eye(n, dtype=bool)
        match = randomly_max_match(adjacency, rng=seed)
        assert len(match) == n // 2

    @given(n=st.integers(2, 16), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_gossip_matrix_doubly_stochastic(self, n, seed):
        adjacency = ~np.eye(n, dtype=bool)
        match = randomly_max_match(adjacency, rng=seed)
        gossip = gossip_matrix_from_matching(match, n)
        assert is_doubly_stochastic(gossip)
        np.testing.assert_array_equal(gossip, gossip.T)

    @given(n=st.integers(2, 12), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_partner_array_involution(self, n, seed):
        adjacency = ~np.eye(n, dtype=bool)
        match = randomly_max_match(adjacency, rng=seed)
        partners = matching_to_partner_array(match, n)
        for v in range(n):
            if partners[v] != -1:
                assert partners[partners[v]] == v


class TestCompressionProperties:
    @given(vector=finite_vectors, seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_error_feedback_conservation(self, vector, seed):
        feedback = ErrorFeedback(TopKCompressor(4.0), vector.size)
        _, sent = feedback.compress(vector)
        np.testing.assert_allclose(
            sent + feedback.residual, vector, atol=1e-9, rtol=1e-9
        )

    @given(vector=finite_vectors, k_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_topk_selects_largest(self, vector, k_fraction):
        k = int(k_fraction * vector.size)
        indices = top_k_indices(vector, k)
        assert indices.size == min(k, vector.size)
        if 0 < indices.size < vector.size:
            kept = set(indices.tolist())
            smallest_kept = min(abs(vector[i]) for i in kept)
            largest_dropped = max(
                abs(vector[i]) for i in range(vector.size) if i not in kept
            )
            assert smallest_kept >= largest_dropped - 1e-12


class TestFlatProperties:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5
        ),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_flatten_round_trip(self, shapes, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=shape) for shape in shapes]
        restored = unflatten_vector(flatten_arrays(arrays), param_specs(arrays))
        for original, back in zip(arrays, restored):
            np.testing.assert_array_equal(original, back)


class TestSeedProperties:
    @given(
        base=st.integers(0, 2**31),
        label=st.text(max_size=10),
        index=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_derive_seed_stable_and_in_range(self, base, label, index):
        seed = derive_seed(base, label, index)
        assert seed == derive_seed(base, label, index)
        assert 0 <= seed < 2**63
