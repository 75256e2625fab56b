"""Compression substrate: sparsifiers, error feedback, payloads.

Per-vector ``compress`` remains the worker-level API; the arena-aware
fast paths use :meth:`Compressor.compress_matrix`, which compresses the
full ``(n, N)`` replica/gradient matrix per round and returns a
:class:`BatchPayload` (per-row payloads plus batched value/index arrays).
"""

from repro.compression.base import (
    BYTES_PER_INDEX,
    BYTES_PER_VALUE,
    BatchPayload,
    Compressor,
    IndexedPayload,
    Payload,
    SharedMaskPayload,
)
from repro.compression.random_mask import (
    RandomMaskCompressor,
    generate_mask,
    mask_density,
)
from repro.compression.topk import (
    TopKCompressor,
    k_for,
    top_k_indices,
    top_k_indices_matrix,
)
from repro.compression.error_feedback import BatchedErrorFeedback

__all__ = [
    "BYTES_PER_VALUE",
    "BYTES_PER_INDEX",
    "Payload",
    "SharedMaskPayload",
    "IndexedPayload",
    "BatchPayload",
    "Compressor",
    "RandomMaskCompressor",
    "generate_mask",
    "mask_density",
    "TopKCompressor",
    "k_for",
    "top_k_indices",
    "top_k_indices_matrix",
    "BatchedErrorFeedback",
]
