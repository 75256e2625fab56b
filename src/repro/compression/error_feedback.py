"""Error-feedback (residual accumulation) for biased compressors.

TopK-PSGD zero-outs 99-99.9% of gradients "with error compensation"
(the paper cites DGC [20] and EF-SignSGD [24]): components dropped this
round are added back before the next compression, so nothing is lost —
only delayed.

:class:`BatchedErrorFeedback` keeps the residual state of all ``n``
workers as a single ``(n, N)`` matrix: compensation is one matrix add and
compression goes through
:meth:`~repro.compression.base.Compressor.compress_matrix`.  With a
deterministic compressor (top-k) it is element-for-element identical to
``n`` independent per-worker residual vectors — the reference
``tests/reference/error_feedback.py`` keeps for that comparison.

``dtype`` lets float32 pipelines keep float32 residuals (default
float64, matching the historical behaviour bit-for-bit).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compression.base import BatchPayload, Compressor
from repro.utils.dtypes import DTypeLike, resolve_dtype


class BatchedErrorFeedback:
    """Error feedback for all workers at once; residual is ``(n, N)``.

    Usage per round (``matrix`` is typically ``arena.grads``)::

        batch, dense_sent = ef.compress(matrix)

    ``batch`` is a :class:`~repro.compression.base.BatchPayload` (row
    ``i`` is worker ``i``'s wire payload); ``dense_sent`` is the
    ``(n, N)`` dense equivalent of everything transmitted.  The residual
    update is one matrix expression instead of ``n`` vector ones.
    """

    def __init__(
        self,
        compressor: Compressor,
        num_rows: int,
        size: int,
        dtype: DTypeLike = None,
    ) -> None:
        if num_rows < 0:
            raise ValueError(f"num_rows must be non-negative, got {num_rows}")
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.compressor = compressor
        self.residual = np.zeros((num_rows, size), dtype=resolve_dtype(dtype))

    def compress(
        self, matrix: np.ndarray, round_index: int = 0
    ) -> Tuple[BatchPayload, np.ndarray]:
        """Compensate, compress and retain residuals for every row.

        Returns ``(batch_payload, dense_sent_matrix)``.
        """
        matrix = np.asarray(matrix, dtype=self.residual.dtype)
        if matrix.shape != self.residual.shape:
            raise ValueError(
                f"matrix shape {matrix.shape} != buffer shape "
                f"{self.residual.shape}"
            )
        compensated = matrix + self.residual
        batch = self.compressor.compress_matrix(compensated, round_index)
        dense_sent = batch.to_dense(self.residual.shape[1])
        # In place: one (n, N) allocation per round saved in the
        # TopK-PSGD hot path (bit-identical to `compensated - dense_sent`).
        np.subtract(compensated, dense_sent, out=self.residual)
        return batch, dense_sent

    def reset(self) -> None:
        self.residual[:] = 0.0
