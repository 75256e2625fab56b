"""Top-k selection, batched error feedback and the all-reduce mean as
they were before threshold selection, kept verbatim as the oracle the
shipped path is checked against bit for bit
(``tests/test_compression_batched.py::TestParentOracle``).

* :func:`top_k_indices_matrix` — row-blocked axis-1 ``argpartition`` of
  the negated magnitudes, then a sort;
* :class:`BatchedErrorFeedback` — ``compensated = matrix + residual``,
  a dense copy of what was sent, ``residual = compensated - dense_sent``;
* :func:`to_dense` / :func:`dense_mean` — the dense scatter and its
  ``mean(axis=0)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compression.base import BatchPayload, IndexedPayload, check_matrix
from repro.compression.topk import k_for
from repro.utils import parallel
from repro.utils.dtypes import DTypeLike, resolve_dtype

TOPK_BLOCK_ROWS = 4


def top_k_indices_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
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


def to_dense(batch: BatchPayload, size: int) -> np.ndarray:
    dense = np.zeros((len(batch.payloads), size), dtype=batch.values.dtype)
    if batch.indices.ndim == 1:
        dense[:, batch.indices] = batch.values
    else:
        np.put_along_axis(dense, batch.indices, batch.values, axis=1)
    return dense


def dense_mean(batch: BatchPayload, size: int) -> np.ndarray:
    return to_dense(batch, size).mean(axis=0)


class TopKCompressor:
    """``TopKCompressor.compress_matrix`` on :func:`top_k_indices_matrix`."""

    def __init__(self, compression_ratio: float) -> None:
        self.ratio = float(compression_ratio)

    def compress_matrix(
        self, matrix: np.ndarray, round_index: int = 0
    ) -> BatchPayload:
        matrix = check_matrix(matrix)
        indices = top_k_indices_matrix(matrix, k_for(matrix.shape[1], self.ratio))
        values = np.take_along_axis(matrix, indices, axis=1)
        return BatchPayload(
            payloads=[
                IndexedPayload(values=values[row], indices=indices[row])
                for row in range(matrix.shape[0])
            ],
            values=values,
            indices=indices,
        )


class BatchedErrorFeedback:
    def __init__(
        self, compressor, num_rows: int, size: int, dtype: DTypeLike = None
    ) -> None:
        self.compressor = compressor
        self.residual = np.zeros((num_rows, size), dtype=resolve_dtype(dtype))

    def compress(
        self, matrix: np.ndarray, round_index: int = 0
    ) -> Tuple[BatchPayload, np.ndarray]:
        matrix = np.asarray(matrix, dtype=self.residual.dtype)
        if matrix.shape != self.residual.shape:
            raise ValueError(
                f"matrix shape {matrix.shape} != buffer shape "
                f"{self.residual.shape}"
            )
        compensated = matrix + self.residual
        batch = self.compressor.compress_matrix(compensated, round_index)
        dense_sent = to_dense(batch, self.residual.shape[1])
        np.subtract(compensated, dense_sent, out=self.residual)
        return batch, dense_sent
