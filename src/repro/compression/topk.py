"""The top-k sparsifier (used by the TopK-PSGD baseline).

Top-k keeps the ``k = ceil(N/c)`` largest-magnitude components and must
ship explicit indices (unlike the paper's shared-mask scheme).

The compressor implements the matrix-level
:meth:`~repro.compression.base.Compressor.compress_matrix` API: top-k
selection runs one row-wise ``argpartition`` over the full ``(n, N)``
matrix (one numpy dispatch per round instead of one per worker), which is
index-for-index identical to per-row selection because ``argpartition``
partitions each row independently with the same introselect kernel.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    BatchPayload,
    Compressor,
    IndexedPayload,
    check_matrix,
    record_batch_metrics,
)
from repro.utils import parallel


def k_for(size: int, compression_ratio: float) -> int:
    """Surviving-component count ``k = max(1, ceil(size/c))`` (0 if empty).

    The single definition shared by top-k compression and S-FedAvg's
    upload masking — keep it in sync with the paper's ``N/c`` convention.
    """
    return max(1, int(np.ceil(size / compression_ratio))) if size else 0


def top_k_indices(vector: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-|v| entries, in ascending index order.

    Ties are broken deterministically by index (via argpartition on the
    negated magnitudes then sorting), so results are reproducible.
    """
    vector = np.asarray(vector)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k >= vector.size:
        return np.arange(vector.size, dtype=np.int64)
    partition = np.argpartition(-np.abs(vector), k - 1)[:k]
    return np.sort(partition)


#: Rows per selection block of :func:`top_k_indices_matrix`.  Small
#: enough that a block's two ``(B, N)`` temporaries (negated magnitudes
#: and the introselect permutation) stay cache-resident, large enough to
#: amortize the numpy dispatch the old one-row-at-a-time loop paid n
#: times per round.  Fixed — never derived from the thread count — so
#: serial and thread-parallel runs partition (and select) identically.
#: 4 rows was the flattest point of the block-size sweep at N = 7210
#: (larger blocks spill the permutation out of cache and lose 2×).
TOPK_BLOCK_ROWS = 4


def top_k_indices_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`top_k_indices` over ``(n, N)``.

    Returns ``(n, k)`` indices, each row ascending.  Row ``i`` equals
    ``top_k_indices(matrix[i], k)`` exactly: ``np.argpartition(...,
    axis=1)`` runs the same introselect kernel on each row's negated
    magnitudes independently, so selection — ties included — is
    index-for-index identical to the per-row call.

    Implementation note: selection runs over row blocks of
    :data:`TOPK_BLOCK_ROWS` — one axis-1 ``argpartition`` per block —
    which bounds the transients (the ``(B, N)`` magnitude buffer and the
    ``(B, N)`` permutation) to one block instead of materializing them
    for the full matrix, while replacing the old per-row Python loop's n
    kernel dispatches with n/B.  Blocks are independent, so they run on
    the configured thread pool (:mod:`repro.utils.parallel`); the block
    partition is fixed, so the thread count never changes the result.
    """
    matrix = check_matrix(matrix)
    num_rows, size = matrix.shape
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return np.zeros((num_rows, 0), dtype=np.int64)
    if k >= size:
        return np.tile(np.arange(size, dtype=np.int64), (num_rows, 1))
    indices = np.empty((num_rows, k), dtype=np.int64)

    def select_block(bound) -> None:
        start, stop = bound
        scratch = np.abs(matrix[start:stop])
        np.negative(scratch, out=scratch)
        indices[start:stop] = np.argpartition(scratch, k - 1, axis=1)[:, :k]

    parallel.parallel_map(
        select_block, parallel.block_ranges(num_rows, TOPK_BLOCK_ROWS)
    )
    indices.sort(axis=1)
    return indices


class TopKCompressor(Compressor):
    """Keep the ``ceil(N/c)`` largest-magnitude entries."""

    def __init__(self, compression_ratio: float) -> None:
        if compression_ratio < 1.0:
            raise ValueError("compression_ratio must be >= 1")
        self._ratio = float(compression_ratio)

    @property
    def ratio(self) -> float:
        return self._ratio

    def k_for(self, size: int) -> int:
        return k_for(size, self._ratio)

    def compress(self, vector: np.ndarray, round_index: int = 0) -> IndexedPayload:
        vector = np.asarray(vector)
        indices = top_k_indices(vector, self.k_for(vector.size))
        # Fancy indexing already allocates a fresh array — no extra copy.
        return IndexedPayload(values=vector[indices], indices=indices)

    def compress_matrix(
        self, matrix: np.ndarray, round_index: int = 0
    ) -> BatchPayload:
        matrix = check_matrix(matrix)
        indices = top_k_indices_matrix(matrix, self.k_for(matrix.shape[1]))
        values = np.take_along_axis(matrix, indices, axis=1)
        batch = BatchPayload(
            payloads=[
                IndexedPayload(values=values[row], indices=indices[row])
                for row in range(matrix.shape[0])
            ],
            values=values,
            indices=indices,
        )
        record_batch_metrics(matrix, batch)
        return batch
