"""Tests for the matrix-level (arena-aware) compression pipeline.

The acceptance contract: the matrix compressors must produce payloads
equivalent to the per-row ``compress`` of ``tests/reference/compressors.py``
— same values, indices and wire bytes
— for shared-mask and top-k, in both float64 and float32, and batched
error feedback must match per-worker buffers.  Threshold top-k, the
in-place error feedback and the sparse all-reduce mean are also checked
bit for bit against the argpartition / dense originals kept in
``tests/reference/topk.py``, on rows built to break them: ties at the
k-th magnitude, ±0, NaN, ±inf and fewer than k non-zeros.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.error_feedback import BatchedErrorFeedback
from repro.compression.base import BatchPayload
from repro.compression.topk import k_for, top_k_indices_matrix
from repro.compression import topk
from repro.utils import parallel
from tests.reference import topk as reference
from tests.reference.compressors import (
    RandomMaskCompressor,
    TopKCompressor,
    to_dense,
    top_k_indices,
)
from tests.reference.error_feedback import ErrorFeedback

DTYPES = [np.float64, np.float32]


def assert_same_floats(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape and got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)  # NaN equals NaN here
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
    assert np.ascontiguousarray(got).tobytes() == (
        np.ascontiguousarray(expected).tobytes()
    )


def _matrix(rng, rows=6, size=400, dtype=np.float64):
    return rng.normal(size=(rows, size)).astype(dtype)


def row_indices(batch, row):
    """The indices row ``row`` of ``batch`` sits at."""
    return batch.indices if batch.indices.ndim == 1 else batch.indices[row]


def assert_rows_equivalent(batch, reference_payloads):
    """Each batch row must match the per-row payload in values, indices
    and wire bytes."""
    assert len(batch.values) == len(reference_payloads)
    for row, reference in enumerate(reference_payloads):
        np.testing.assert_array_equal(batch.values[row], reference.values)
        assert batch.values.dtype == reference.values.dtype
        np.testing.assert_array_equal(row_indices(batch, row), reference.indices)
        assert batch.row_bytes()[row] == reference.num_bytes()


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

    def test_top_k(self, rng, dtype):
        matrix = _matrix(rng, dtype=dtype)
        compressor = TopKCompressor(20.0)
        batch = compressor.compress_matrix(matrix)
        assert_rows_equivalent(
            batch, [compressor.compress(row) for row in matrix]
        )

    def test_to_dense_matches_per_row(self, rng, dtype):
        matrix = _matrix(rng, dtype=dtype)
        for batch in (
            RandomMaskCompressor(8.0).compress_matrix_with_seed(matrix, 0),
            TopKCompressor(8.0).compress_matrix(matrix),
        ):
            rows = (
                SimpleNamespace(values=values, indices=row_indices(batch, row))
                for row, values in enumerate(batch.values)
            )
            stacked = np.stack([to_dense(row, matrix.shape[1]) for row in rows])
            np.testing.assert_array_equal(batch.to_dense(matrix.shape[1]), stacked)
            assert batch.to_dense(matrix.shape[1]).dtype == dtype
            assert_same_floats(
                batch.dense_mean(matrix.shape[1]), stacked.mean(axis=0)
            )


class TestBaseLoopFallback:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            TopKCompressor(2.0).compress_matrix(np.zeros(5))

    def test_batch_num_bytes_totals_rows(self, rng):
        matrix = rng.normal(size=(3, 100))
        batch = TopKCompressor(10.0).compress_matrix(matrix)
        assert batch.num_bytes() == sum(batch.row_bytes())
        assert batch.row_bytes().tolist() == [
            TopKCompressor(10.0).compress(row).num_bytes() for row in matrix
        ]


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
            batch = batched.compress(gradients, round_index)
            sent = []
            for row in range(rows):
                payload, row_dense = per_worker[row].compress(
                    gradients[row], round_index
                )
                sent.append(row_dense)
                np.testing.assert_array_equal(batch.to_dense(size)[row], row_dense)
                np.testing.assert_array_equal(batch.values[row], payload.values)
                np.testing.assert_array_equal(
                    batched.residual[row], per_worker[row].residual
                )
            assert_same_floats(batch.dense_mean(size), np.mean(sent, axis=0))

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
            total_sent += feedback.compress(gradients, round_index).to_dense(size)
        atol = 1e-9 if dtype == np.float64 else 1e-3
        np.testing.assert_allclose(
            total_sent + feedback.residual, total_in, atol=atol
        )

    def test_residual_dtype(self, rng, dtype):
        feedback = BatchedErrorFeedback(TopKCompressor(5.0), 3, 50, dtype=dtype)
        assert feedback.residual.dtype == dtype
        feedback.compress(rng.normal(size=(3, 50)).astype(dtype))
        assert feedback.residual.dtype == dtype

    def test_shape_mismatch_raises(self, rng, dtype):
        feedback = BatchedErrorFeedback(TopKCompressor(5.0), 3, 50, dtype=dtype)
        feedback.compress(rng.normal(size=(3, 50)).astype(dtype))
        before = feedback.residual.copy()
        with pytest.raises(ValueError):
            feedback.compress(np.ones((3, 51)))
        # The residual is updated in place: a rejected call must not
        # have touched it.
        assert_same_floats(feedback.residual, before)


#: Per-row value styles of the oracle properties.
ROW_STYLES = ("normal", "palette", "tie_at_k", "sparse", "special")
#: Few distinct magnitudes (ties everywhere), both zeros.
PALETTE = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0)
SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf)
#: Mean inputs: magnitudes far enough apart that any change in the order
#: of the adds changes the rounded result, alone, with both zeros, and
#: with NaN and both infinities (whose sums' NaN signs differ between
#: NumPy's code paths).
_FINITE = (1.0, -1.0, 0.1, 3.0e-8, 1.0e16, -1.0e16, 7.5e7)
MEAN_PALETTES = {
    "finite": _FINITE,
    "zeros": _FINITE + (0.0, -0.0),
    "special": (1.0, -1.0, np.nan, np.inf, -np.inf),
}


def oracle_matrix(rng, styles, size, k, dtype) -> np.ndarray:
    """One row per style: normals; a tie-heavy palette; normals with
    copies of the k-th magnitude planted; fewer than ``k`` non-zeros;
    normals sprinkled with ±0, NaN and ±inf."""
    rows = []
    for style in styles:
        row = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
        if style == "palette":
            row = rng.choice(PALETTE, size=size)
        elif style == "tie_at_k":
            kth = np.sort(np.abs(row))[::-1][k - 1]
            spots = rng.integers(0, size, size=rng.integers(1, 4))
            row[spots] = rng.choice([-kth, kth], size=spots.size)
        elif style == "sparse":
            zeros = rng.permutation(size)[rng.integers(0, k):]
            row[zeros] = rng.choice([0.0, -0.0], size=zeros.size)
        elif style == "special":
            spots = rng.random(size) < 0.15
            row[spots] = rng.choice(SPECIALS, size=int(spots.sum()))
        rows.append(row)
    return np.array(rows).astype(dtype)


@st.composite
def oracle_cases(draw):
    """Shape, k (1..N), dtype, row styles, thread count, sample size of
    the threshold pre-pass and a value seed."""
    size = draw(st.one_of(st.integers(1, 64), st.integers(65, 3000)))
    k = draw(st.integers(1, size))
    styles = draw(st.lists(st.sampled_from(ROW_STYLES), min_size=1, max_size=6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    threads = draw(st.sampled_from([1, 4]))
    sample_size = draw(st.sampled_from([4, 64, topk.SAMPLE_SIZE]))
    return size, k, styles, dtype, threads, sample_size, draw(
        st.integers(0, 2**32 - 1)
    )


class TestParentOracle:
    """Threshold selection, in-place error feedback and ``dense_mean``
    equal the argpartition / dense originals bit for bit."""

    def run(self, case, body):
        size, k, styles, dtype, threads, sample_size, seed = case
        default = topk.SAMPLE_SIZE
        topk.SAMPLE_SIZE = sample_size
        parallel.set_num_threads(threads)
        try:
            with np.errstate(invalid="ignore"):  # inf - inf on planted rows
                return body(np.random.default_rng(seed), size, k, styles, dtype)
        finally:
            topk.SAMPLE_SIZE = default
            parallel.set_num_threads(None)

    @settings(max_examples=120, deadline=None)
    @given(oracle_cases())
    def test_indices_equal_argpartition(self, case):
        def body(rng, size, k, styles, dtype):
            matrix = oracle_matrix(rng, styles, size, k, dtype)
            expected = reference.top_k_indices_matrix(matrix, k)
            got = top_k_indices_matrix(matrix, k)
            assert got.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
            for row in range(matrix.shape[0]):
                np.testing.assert_array_equal(
                    top_k_indices(matrix[row], k), expected[row]
                )

        self.run(case, body)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 8), st.booleans(),
        st.sampled_from(sorted(MEAN_PALETTES)),
        st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1),
    )
    def test_dense_mean_equals_dense_fold(self, rows, size, shared, palette,
                                          dtype, seed):
        """Shared and per-row indices; sums whose order shows in the
        rounding; sent zeros, NaN and ±inf; one column (where NumPy sums
        pairwise) and up to 40 rows."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, size + 1))
        values = rng.choice(MEAN_PALETTES[palette], size=(rows, k)).astype(dtype)
        if shared:
            indices = np.sort(rng.choice(size, k, replace=False))
        else:
            indices = np.sort(rng.random((rows, size)).argsort(axis=1)[:, :k], axis=1)
        batch = BatchPayload(values=values, indices=indices)
        with np.errstate(invalid="ignore"):  # inf + -inf
            assert_same_floats(
                batch.dense_mean(size), reference.dense_mean(batch, size)
            )

    @settings(max_examples=60, deadline=None)
    @given(oracle_cases(), st.integers(1, 3))
    def test_error_feedback_rounds_equal_dense_originals(self, case, rounds):
        def body(rng, size, k, styles, dtype):
            ratio = size / k
            shipped = BatchedErrorFeedback(
                TopKCompressor(ratio), len(styles), size, dtype=dtype
            )
            oracle = reference.BatchedErrorFeedback(
                reference.TopKCompressor(ratio), len(styles), size, dtype=dtype
            )
            for round_index in range(rounds):
                grads = oracle_matrix(
                    rng, rng.permutation(styles), size, k, dtype
                )
                batch = shipped.compress(grads, round_index)
                expected, dense_sent = oracle.compress(grads, round_index)
                np.testing.assert_array_equal(batch.indices, expected.indices)
                assert_same_floats(batch.values, expected.values)
                assert_same_floats(shipped.residual, oracle.residual)
                assert_same_floats(
                    batch.dense_mean(size), reference.dense_mean(expected, size)
                )
                assert_same_floats(batch.to_dense(size), dense_sent)

        self.run(case, body)
