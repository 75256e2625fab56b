"""The top-k sparsifier (used by the TopK-PSGD baseline).

Top-k keeps the ``k = ceil(N/c)`` largest-magnitude components and must
ship explicit indices (unlike the paper's shared-mask scheme).

Selection is by threshold: per row, the exact k-th largest magnitude
``t``, then ``|r| >= t`` in ascending index order.  When exactly ``k``
entries reach ``t > 0`` that is the set any partition selects, so it is
what ``argpartition`` of the negated magnitudes gives; any other row (a
tie at ``t``, NaN, fewer than ``k`` non-zeros) is selected by that
``argpartition``, so ties break as they always have.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.compression.base import (
    BatchPayload,
    check_compression_ratio,
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


#: Rows per work item of :func:`top_k_indices_matrix`.  Rows are
#: selected one at a time, so this sets only the pool's granularity:
#: at (16, 85 002) float32, 1 to 16 rows read 1.71–1.82 ms at 1 thread
#: (2-vCPU box).  Fixed, never derived from the thread count.
TOPK_BLOCK_ROWS = 4

#: Size of the strided sample that bounds a row's k-th magnitude.
SAMPLE_SIZE = 1024


def _threshold_top_k(magnitude: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Ascending indices of the ``k`` largest entries of 1-D
    ``magnitude`` (``0 < k < size``), or ``None`` unless exactly ``k``
    reach the k-th largest value ``t`` and ``t > 0``.  ``t`` is found
    among the entries above a strided sample's rank-``2·E[hits] + 8``
    value, or the whole row if fewer than ``k`` are; the count check
    makes the result exact wherever that bound fell (NaN never
    compares ``>=``)."""
    size = magnitude.size
    sample = magnitude[:: max(1, size // SAMPLE_SIZE)]
    rank = min(sample.size, 2 * (k * sample.size // size) + 8)
    bound = np.partition(sample, sample.size - rank)[sample.size - rank]
    candidates = np.flatnonzero(magnitude >= bound)
    if candidates.size < k:
        candidates = np.arange(size)
    values = magnitude[candidates]
    threshold = np.partition(values, values.size - k)[values.size - k]
    chosen = candidates[values >= threshold]
    return chosen if chosen.size == k and threshold > 0 else None


def top_k_indices_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-``k`` by magnitude over ``(n, N)``.

    Returns ``(n, k)`` int64 indices, each row ascending.  A row
    :func:`_threshold_top_k` declines is selected by ``argpartition`` of
    its negated magnitudes, then sorted, and counted in
    ``compression.topk_tie_rows``.  Blocks of :data:`TOPK_BLOCK_ROWS`
    run on the thread pool; each row is selected on its own, so neither
    the partition nor the thread count changes the result.
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

    def select_block(bound) -> int:
        start, stop = bound
        magnitude = np.empty(size, dtype=matrix.dtype)
        ties = 0
        for row in range(start, stop):
            np.abs(matrix[row], out=magnitude)
            chosen = _threshold_top_k(magnitude, k)
            if chosen is None:
                ties += 1
                np.negative(magnitude, out=magnitude)
                chosen = np.sort(np.argpartition(magnitude, k - 1)[:k])
            indices[row] = chosen
        return ties

    ties = parallel.parallel_map(
        select_block, parallel.block_ranges(num_rows, TOPK_BLOCK_ROWS)
    )
    obs.inc("compression.topk_tie_rows", sum(ties))
    return indices


class TopKCompressor:
    """Keep each row's ``ceil(N/c)`` largest-magnitude entries."""

    def __init__(self, compression_ratio: float) -> None:
        #: The paper's ``c``: the expected dense/compressed size factor.
        self.ratio = check_compression_ratio(compression_ratio)

    def k_for(self, size: int) -> int:
        return k_for(size, self.ratio)

    def compress_matrix(
        self, matrix: np.ndarray, round_index: int = 0
    ) -> BatchPayload:
        matrix = check_matrix(matrix)
        indices = top_k_indices_matrix(matrix, self.k_for(matrix.shape[1]))
        values = np.take_along_axis(matrix, indices, axis=1)
        batch = BatchPayload(values=values, indices=indices)
        record_batch_metrics(batch, matrix.size)
        return batch
