"""Tests for the matrix-level (arena-aware) compression pipeline.

The acceptance contract: ``compress_matrix`` must produce payloads
equivalent to per-row ``compress`` — same values, indices and wire bytes
— for shared-mask and top-k, in both float64 and float32, and batched
error feedback must match per-worker buffers.
"""

import numpy as np
import pytest

from repro.compression import (
    BatchedErrorFeedback,
    BatchPayload,
    IndexedPayload,
    RandomMaskCompressor,
    TopKCompressor,
    k_for,
    top_k_indices,
    top_k_indices_matrix,
)
from tests.reference.error_feedback import ErrorFeedback

DTYPES = [np.float64, np.float32]


def _matrix(rng, rows=6, size=400, dtype=np.float64):
    return rng.normal(size=(rows, size)).astype(dtype)


def assert_rows_equivalent(batch, reference_payloads):
    """Each batch row must match the per-row payload in values, indices
    and wire bytes."""
    assert len(batch) == len(reference_payloads)
    for row_payload, reference in zip(batch, reference_payloads):
        np.testing.assert_array_equal(row_payload.values, reference.values)
        assert row_payload.values.dtype == reference.values.dtype
        if hasattr(reference, "indices"):
            np.testing.assert_array_equal(row_payload.indices, reference.indices)
        assert row_payload.num_bytes() == reference.num_bytes()


class TestKFor:
    def test_matches_paper_convention(self):
        assert k_for(10_000, 1000.0) == 10
        assert k_for(5, 1000.0) == 1  # at least one survives
        assert k_for(0, 10.0) == 0


@pytest.mark.parametrize("dtype", DTYPES)
class TestMatrixEquivalence:
    def test_shared_mask(self, rng, dtype):
        matrix = _matrix(rng, dtype=dtype)
        compressor = RandomMaskCompressor(10.0)
        batch = compressor.compress_matrix_with_seed(matrix, seed=7)
        assert_rows_equivalent(
            batch,
            [compressor.compress_with_seed(row, seed=7) for row in matrix],
        )
        # Shared-mask batches carry ONE index vector for all rows.
        assert batch.indices.ndim == 1

    def test_shared_mask_set_seed_path(self, rng, dtype):
        matrix = _matrix(rng, dtype=dtype)
        compressor = RandomMaskCompressor(5.0)
        compressor.set_seed(11)
        batch = compressor.compress_matrix(matrix)
        np.testing.assert_array_equal(
            batch[2].values, compressor.compress(matrix[2]).values
        )

    def test_top_k(self, rng, dtype):
        matrix = _matrix(rng, dtype=dtype)
        compressor = TopKCompressor(20.0)
        batch = compressor.compress_matrix(matrix)
        assert_rows_equivalent(
            batch, [compressor.compress(row) for row in matrix]
        )

    def test_to_dense_matches_per_row(self, rng, dtype):
        matrix = _matrix(rng, dtype=dtype)
        for compressor in (
            RandomMaskCompressor(8.0),
            TopKCompressor(8.0),
        ):
            batch = compressor.compress_matrix(matrix)
            stacked = np.stack(
                [payload.to_dense(matrix.shape[1]) for payload in batch]
            )
            np.testing.assert_array_equal(batch.to_dense(matrix.shape[1]), stacked)
            assert batch.to_dense(matrix.shape[1]).dtype == dtype


class TestBaseLoopFallback:
    def test_generic_compressor_loops_rows(self, rng):
        """A compressor that only implements ``compress`` still gets the
        batched API via the base-class row loop."""
        from repro.compression import Compressor

        matrix = rng.normal(size=(4, 50))

        class Halver(Compressor):
            @property
            def ratio(self):
                return 1.0

            def compress(self, vector, round_index=0):
                return IndexedPayload(
                    values=np.asarray(vector) * 0.5, indices=np.arange(len(vector))
                )

        batch = Halver().compress_matrix(matrix)
        np.testing.assert_array_equal(batch.to_dense(50), matrix * 0.5)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            TopKCompressor(2.0).compress_matrix(np.zeros(5))

    def test_batch_num_bytes_totals_rows(self, rng):
        matrix = rng.normal(size=(3, 100))
        batch = TopKCompressor(10.0).compress_matrix(matrix)
        assert batch.num_bytes() == sum(batch.row_bytes())
        assert batch.row_bytes() == [p.num_bytes() for p in batch]


class TestTopKIndicesMatrix:
    def test_matches_per_row(self, rng):
        matrix = rng.normal(size=(5, 64))
        for k in (0, 1, 7, 64, 99):
            batched = top_k_indices_matrix(matrix, k)
            for row in range(5):
                np.testing.assert_array_equal(
                    batched[row], top_k_indices(matrix[row], k)
                )

    def test_negative_k(self, rng):
        with pytest.raises(ValueError):
            top_k_indices_matrix(rng.normal(size=(2, 4)), -1)


@pytest.mark.parametrize("dtype", DTYPES)
class TestBatchedErrorFeedback:
    def test_matches_per_worker_buffers(self, rng, dtype):
        rows, size = 5, 300
        batched = BatchedErrorFeedback(TopKCompressor(10.0), rows, size, dtype=dtype)
        per_worker = [
            ErrorFeedback(TopKCompressor(10.0), size, dtype=dtype)
            for _ in range(rows)
        ]
        for round_index in range(6):
            gradients = rng.normal(size=(rows, size)).astype(dtype)
            batch, dense = batched.compress(gradients, round_index)
            for row in range(rows):
                payload, row_dense = per_worker[row].compress(
                    gradients[row], round_index
                )
                np.testing.assert_array_equal(dense[row], row_dense)
                np.testing.assert_array_equal(
                    batch[row].values, payload.values
                )
                np.testing.assert_array_equal(
                    batched.residual[row], per_worker[row].residual
                )

    def test_nothing_lost_only_delayed(self, rng, dtype):
        """Residual + transmitted == accumulated input, matrix-wide.

        float32 accumulates rounding, hence the dtype-aware tolerance.
        """
        rows, size = 4, 200
        feedback = BatchedErrorFeedback(TopKCompressor(10.0), rows, size, dtype=dtype)
        total_in = np.zeros((rows, size), dtype=np.float64)
        total_sent = np.zeros((rows, size), dtype=np.float64)
        for round_index in range(15):
            gradients = rng.normal(size=(rows, size)).astype(dtype)
            total_in += gradients
            _, dense = feedback.compress(gradients, round_index)
            total_sent += dense
        atol = 1e-9 if dtype == np.float64 else 1e-3
        np.testing.assert_allclose(
            total_sent + feedback.residual, total_in, atol=atol
        )

    def test_residual_dtype_and_reset(self, rng, dtype):
        feedback = BatchedErrorFeedback(TopKCompressor(5.0), 3, 50, dtype=dtype)
        assert feedback.residual.dtype == dtype
        feedback.compress(rng.normal(size=(3, 50)).astype(dtype))
        assert feedback.residual.dtype == dtype
        feedback.reset()
        np.testing.assert_array_equal(feedback.residual, np.zeros((3, 50)))

    def test_shape_mismatch_raises(self, rng, dtype):
        feedback = BatchedErrorFeedback(TopKCompressor(5.0), 3, 50, dtype=dtype)
        with pytest.raises(ValueError):
            feedback.compress(np.zeros((3, 51)))
