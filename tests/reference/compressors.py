"""The per-row compression API, kept as the oracle the matrix
compressors are checked against.

``repro.compression`` compresses a whole ``(n, N)`` replica matrix per
round.  What it once also did one vector at a time lives here: the
seeded shared-mask payload, the top-k payload, the one-row top-k
selection and a payload's dense scatter.  :class:`RandomMaskCompressor`
and :class:`TopKCompressor` are the shipped classes with their per-row
``compress`` put back, so one object carries both paths (the per-row
``ErrorFeedback`` of ``error_feedback.py`` runs on ``compress``).
"""

from __future__ import annotations

import numpy as np

from repro.compression import random_mask, topk
from repro.compression.base import IndexedPayload, SharedMaskPayload


def to_dense(payload, size: int) -> np.ndarray:
    """``payload`` as a dense vector of length ``size``, in the dtype of
    its values."""
    dense = np.zeros(size, dtype=payload.values.dtype)
    dense[payload.indices] = payload.values
    return dense


def top_k_indices(vector: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-|v| entries, in ascending index order:
    the one-row case of ``top_k_indices_matrix``."""
    return topk.top_k_indices_matrix(np.reshape(vector, (1, -1)), k)[0]


class RandomMaskCompressor(random_mask.RandomMaskCompressor):
    def compress(self, vector: np.ndarray, round_index: int = 0) -> SharedMaskPayload:
        return self.compress_with_seed(vector, 0)

    def compress_with_seed(self, vector: np.ndarray, seed: int) -> SharedMaskPayload:
        vector = np.asarray(vector)
        indices = np.flatnonzero(random_mask.generate_mask(vector.size, self.ratio, seed))
        return SharedMaskPayload(
            values=vector[indices].copy(), indices=indices, mask_seed=int(seed)
        )


class TopKCompressor(topk.TopKCompressor):
    def compress(self, vector: np.ndarray, round_index: int = 0) -> IndexedPayload:
        vector = np.asarray(vector)
        indices = top_k_indices(vector, self.k_for(vector.size))
        return IndexedPayload(values=vector[indices], indices=indices)
