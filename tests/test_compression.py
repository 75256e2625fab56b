"""Tests for the compression substrate: masks, top-k, payloads."""

import numpy as np
import pytest

from repro.compression.base import (
    BYTES_PER_INDEX,
    BYTES_PER_VALUE,
    IndexedPayload,
    SharedMaskPayload,
)
from repro.compression.random_mask import generate_mask
from tests.reference.compressors import (
    RandomMaskCompressor,
    TopKCompressor,
    to_dense,
    top_k_indices,
)
from tests.reference.error_feedback import ErrorFeedback


class TestGenerateMask:
    def test_same_seed_same_mask(self):
        """The invariant Algorithm 2 relies on: identical masks from the
        shared coordinator seed."""
        a = generate_mask(10_000, 100.0, seed=42)
        b = generate_mask(10_000, 100.0, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_mask(self):
        a = generate_mask(10_000, 100.0, seed=1)
        b = generate_mask(10_000, 100.0, seed=2)
        assert not np.array_equal(a, b)

    def test_density_matches_ratio(self):
        mask = generate_mask(200_000, 100.0, seed=0)
        assert mask.mean() == pytest.approx(0.01, rel=0.15)

    def test_ratio_one_keeps_everything(self):
        mask = generate_mask(1000, 1.0, seed=0)
        assert mask.all()

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            generate_mask(10, 0.5, seed=0)

    def test_empty(self):
        assert generate_mask(0, 10.0, seed=0).size == 0


class TestRandomMaskCompressor:
    def test_payload_values_match_mask(self, rng):
        vector = rng.normal(size=5000)
        compressor = RandomMaskCompressor(10.0)
        payload = compressor.compress_with_seed(vector, seed=7)
        mask = generate_mask(5000, 10.0, 7)
        np.testing.assert_array_equal(payload.indices, np.flatnonzero(mask))
        np.testing.assert_array_equal(payload.values, vector[mask])

    def test_no_index_bytes_on_wire(self, rng):
        """Shared-mask payloads cost values only — the paper's key saving
        over indexed sparsification."""
        vector = rng.normal(size=10_000)
        payload = RandomMaskCompressor(100.0).compress_with_seed(vector, seed=1)
        assert payload.num_bytes() == payload.values.size * BYTES_PER_VALUE

    def test_to_dense_round_trip(self, rng):
        vector = rng.normal(size=1000)
        payload = RandomMaskCompressor(4.0).compress_with_seed(vector, seed=3)
        dense = to_dense(payload, 1000)
        mask = generate_mask(1000, 4.0, 3)
        np.testing.assert_array_equal(dense[mask], vector[mask])
        np.testing.assert_array_equal(dense[~mask], 0.0)


class TestTopK:
    def test_indices_are_largest_magnitudes(self):
        vector = np.array([0.1, -5.0, 3.0, 0.0, -0.2])
        np.testing.assert_array_equal(top_k_indices(vector, 2), [1, 2])

    def test_k_zero_and_full(self, rng):
        vector = rng.normal(size=10)
        assert top_k_indices(vector, 0).size == 0
        np.testing.assert_array_equal(top_k_indices(vector, 10), np.arange(10))

    def test_compressor_k(self):
        compressor = TopKCompressor(1000.0)
        assert compressor.k_for(10_000) == 10
        assert compressor.k_for(5) == 1  # at least one survives

    def test_payload_includes_index_bytes(self, rng):
        vector = rng.normal(size=1000)
        payload = TopKCompressor(10.0).compress(vector)
        assert payload.num_bytes() == payload.values.size * (
            BYTES_PER_VALUE + BYTES_PER_INDEX
        )

    def test_captures_energy(self, rng):
        vector = rng.normal(size=1000) ** 3  # heavy tails
        dense = to_dense(TopKCompressor(10.0).compress(vector), 1000)
        assert np.sum(dense**2) > 0.5 * np.sum(vector**2)

class TestErrorFeedback:
    def test_nothing_lost_only_delayed(self, rng):
        """Residual + transmitted must always equal the accumulated input."""
        size = 200
        feedback = ErrorFeedback(TopKCompressor(10.0), size)
        total_in = np.zeros(size)
        total_sent = np.zeros(size)
        for round_index in range(20):
            gradient = rng.normal(size=size)
            total_in += gradient
            _, dense_sent = feedback.compress(gradient, round_index)
            total_sent += dense_sent
        np.testing.assert_allclose(total_sent + feedback.residual, total_in, atol=1e-9)

    def test_residual_starts_zero(self):
        feedback = ErrorFeedback(TopKCompressor(2.0), 10)
        np.testing.assert_array_equal(feedback.residual, np.zeros(10))

    def test_reset(self, rng):
        feedback = ErrorFeedback(TopKCompressor(5.0), 50)
        feedback.compress(rng.normal(size=50))
        feedback.reset()
        np.testing.assert_array_equal(feedback.residual, np.zeros(50))

    def test_size_mismatch_raises(self):
        feedback = ErrorFeedback(TopKCompressor(2.0), 10)
        with pytest.raises(ValueError):
            feedback.compress(np.zeros(11))

    def test_identity_compressor_leaves_no_residual(self, rng):
        feedback = ErrorFeedback(TopKCompressor(1.0), 30)
        feedback.compress(rng.normal(size=30))
        np.testing.assert_allclose(feedback.residual, np.zeros(30), atol=1e-12)


class TestPayloads:
    def test_indexed_to_dense(self):
        payload = IndexedPayload(
            values=np.array([1.0, 2.0]), indices=np.array([3, 7])
        )
        dense = to_dense(payload, 10)
        assert dense[3] == 1.0 and dense[7] == 2.0
        assert dense.sum() == 3.0

    def test_shared_mask_to_dense(self):
        payload = SharedMaskPayload(
            values=np.array([5.0]), indices=np.array([2]), mask_seed=9
        )
        dense = to_dense(payload, 4)
        np.testing.assert_array_equal(dense, [0.0, 0.0, 5.0, 0.0])
