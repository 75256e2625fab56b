"""The paper's sparsifier: seeded Bernoulli random masks (Section II-B).

All workers receive the round seed ``s`` from the coordinator and generate
the *same* mask ``m_t ∈ {0,1}^N`` with ``P[m_t[j] = 1] = p = 1/c``
(Eq. 3).  Because the mask is shared, transmitted payloads need no index
metadata — only the surviving values travel.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    BatchPayload,
    check_compression_ratio,
    check_matrix,
    record_batch_metrics,
)


def generate_mask(size: int, compression_ratio: float, seed: int) -> np.ndarray:
    """Generate the Bernoulli(1/c) mask for round seed ``seed``.

    Deterministic: every worker calling this with the same arguments gets
    the identical mask (the property Algorithm 2 line 6 relies on).

    Returns a boolean array of shape ``(size,)``.
    """
    check_compression_ratio(compression_ratio)
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    probability = 1.0 / compression_ratio
    rng = np.random.default_rng(seed)
    return rng.random(size) < probability


class RandomMaskCompressor:
    """:func:`generate_mask` applied to a whole replica matrix for a fixed
    ratio ``c``; a round's mask comes from the seed the coordinator
    broadcasts."""

    def __init__(self, compression_ratio: float) -> None:
        #: The paper's ``c``: the expected dense/compressed size factor.
        self.ratio = check_compression_ratio(compression_ratio)

    def batch_from_values(
        self, values: np.ndarray, indices: np.ndarray, model_size: int
    ) -> BatchPayload:
        """Assemble the round's :class:`BatchPayload` from pre-gathered
        components.

        The fused round engine reads each replica block's masked columns
        immediately after that block's local update, while the rows are
        still cache-hot; this wraps the resulting ``(n, k)`` value matrix
        without :meth:`compress_matrix_with_seed`'s second full pass over
        the replica matrix.  Caller contract: ``values[i] ==
        matrix[i, indices]`` where ``indices`` are the kept positions of
        the round seed's mask, and ``model_size`` is ``N`` (the savings
        are measured against the ``(n, N)`` read).
        """
        batch = BatchPayload(values=check_matrix(values), indices=indices)
        record_batch_metrics(batch, len(batch.values) * model_size)
        return batch

    def compress_matrix_with_seed(
        self, matrix: np.ndarray, seed: int
    ) -> BatchPayload:
        """Apply the round's shared mask to every row in one gather.

        This is the arena-aware fast path: the mask is generated once per
        *round* (not per worker) and ``matrix[:, indices]`` gathers all
        surviving components of all replicas in a single fancy-indexed
        read.
        """
        matrix = check_matrix(matrix)
        indices = np.flatnonzero(generate_mask(matrix.shape[1], self.ratio, seed))
        return self.batch_from_values(matrix[:, indices], indices, matrix.shape[1])
