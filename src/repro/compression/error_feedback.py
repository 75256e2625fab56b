"""Error-feedback (residual accumulation) for biased compressors.

TopK-PSGD zero-outs 99-99.9% of gradients "with error compensation"
(the paper cites DGC [20] and EF-SignSGD [24]): components dropped this
round are added back before the next compression, so nothing is lost —
only delayed.

:class:`BatchedErrorFeedback` keeps the residual state of all ``n``
workers as one ``(n, N)`` matrix and touches it once per round: the
gradients are added into it in place, compression reads it, and only
the sent cells are written back.  With a deterministic compressor
(top-k) it is element-for-element identical to ``n`` independent
per-worker residual vectors — the reference
``tests/reference/error_feedback.py`` keeps for that comparison.

``dtype`` lets float32 pipelines keep float32 residuals (default
float64, matching the historical behaviour bit-for-bit).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.compression.base import BatchPayload
from repro.compression.topk import TopKCompressor
from repro.utils.dtypes import DTypeLike, resolve_dtype


class BatchedErrorFeedback:
    """Error feedback for all workers at once; residual is ``(n, N)``.

    Usage per round (``matrix`` is typically ``arena.grads``)::

        batch = ef.compress(matrix)
        average = batch.dense_mean(N)   # the all-reduce of what was sent

    ``batch`` is a :class:`~repro.compression.base.BatchPayload` (row
    ``i`` is worker ``i``'s wire payload).  The compressor must attach
    ``(n, k)`` ``values`` / ``indices`` arrays, values copied from its
    input (top-k does).
    """

    def __init__(
        self,
        compressor: TopKCompressor,
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

    def compress(self, matrix: np.ndarray, round_index: int = 0) -> BatchPayload:
        """Compensate, compress and retain residuals for every row.

        The floats of ``residual = (matrix + residual) - to_dense(batch)``:
        the add runs in place on the same operands in the same order, a
        sent cell becomes ``v - v`` (``x - x``, inf and NaN included) and
        an unsent one keeps ``x``, as ``x - 0.0`` did.
        """
        matrix = np.asarray(matrix, dtype=self.residual.dtype)
        if matrix.shape != self.residual.shape:
            raise ValueError(
                f"matrix shape {matrix.shape} != buffer shape "
                f"{self.residual.shape}"
            )
        with obs.phase("compress"):
            np.add(matrix, self.residual, out=self.residual)
            with obs.phase("compress.select"):
                batch = self.compressor.compress_matrix(
                    self.residual, round_index
                )
            with obs.phase("compress.residual"):
                sent = batch.values - batch.values
                np.put_along_axis(self.residual, batch.indices, sent, axis=1)
        return batch
