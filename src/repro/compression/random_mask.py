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
    SharedMaskPayload,
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
        self,
        values: np.ndarray,
        indices: np.ndarray,
        seed: int,
        model_size: int | None = None,
    ) -> BatchPayload:
        """Assemble the round's :class:`BatchPayload` from pre-gathered
        components.

        The fused round engine reads each replica block's masked columns
        immediately after that block's local update, while the rows are
        still cache-hot; this wraps the resulting ``(n, k)`` value matrix
        in exactly the payload structure
        :meth:`compress_matrix_with_seed` builds, skipping its second
        full pass over the replica matrix.  Caller contract:
        ``values[i] == matrix[i, indices]`` where ``indices`` are the
        kept positions of ``seed``'s mask.
        """
        values = check_matrix(values)
        batch = BatchPayload(
            payloads=[
                SharedMaskPayload(
                    values=values[row], indices=indices, mask_seed=int(seed)
                )
                for row in range(values.shape[0])
            ],
            values=values,
            indices=indices,
        )
        # Dense reference: the fused gather never materializes the
        # (n, N) read, so the caller passes ``model_size`` for parity
        # with :meth:`compress_matrix_with_seed`'s accounting.
        if model_size is not None:
            from repro import obs
            from repro.compression.base import BYTES_PER_VALUE

            registry = obs.metrics()
            if registry is not None:
                dense = values.shape[0] * int(model_size) * BYTES_PER_VALUE
                wire = int(batch.num_bytes())
                registry.inc("compression.bytes_dense", float(dense))
                registry.inc("compression.bytes_wire", float(wire))
                registry.inc("compression.bytes_saved", float(dense - wire))
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
        mask = generate_mask(matrix.shape[1], self.ratio, seed)
        indices = np.flatnonzero(mask)
        values = matrix[:, indices]
        batch = BatchPayload(
            payloads=[
                SharedMaskPayload(
                    values=values[row], indices=indices, mask_seed=int(seed)
                )
                for row in range(matrix.shape[0])
            ],
            values=values,
            indices=indices,
        )
        record_batch_metrics(matrix, batch)
        return batch
