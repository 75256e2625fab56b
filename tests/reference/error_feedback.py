"""One worker's error-feedback residual vector: the per-row object that
``repro.compression.error_feedback.BatchedErrorFeedback`` is pinned against
(``tests/test_compression_batched.py``) and that the per-model TopK-PSGD
round in ``per_model.py`` runs on."""

from __future__ import annotations

import numpy as np

from repro.utils.dtypes import DTypeLike, resolve_dtype
from tests.reference.compressors import to_dense


class ErrorFeedback:
    """Residual buffer wrapping a compressor.

    Usage per round::

        payload, dense_sent = ef.compress(gradient)

    where ``dense_sent`` is the dense equivalent of what was transmitted;
    the difference ``(gradient + residual) - dense_sent`` is retained for
    the next round.
    """

    def __init__(self, compressor, size: int, dtype: DTypeLike = None) -> None:
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.compressor = compressor
        self.residual = np.zeros(size, dtype=resolve_dtype(dtype))

    def compress(self, vector: np.ndarray, round_index: int = 0):
        """Compensate, compress, and retain the new residual.

        Returns ``(payload, dense_sent)``.
        """
        vector = np.asarray(vector, dtype=self.residual.dtype)
        if vector.size != self.residual.size:
            raise ValueError(
                f"vector size {vector.size} != buffer size {self.residual.size}"
            )
        compensated = vector + self.residual
        payload = self.compressor.compress(compensated, round_index)
        dense_sent = to_dense(payload, vector.size)
        # In place: the residual buffer is long-lived, no fresh array per
        # round (bit-identical to `compensated - dense_sent`).
        np.subtract(compensated, dense_sent, out=self.residual)
        return payload, dense_sent

    def reset(self) -> None:
        self.residual[:] = 0.0
