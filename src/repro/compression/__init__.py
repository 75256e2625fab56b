"""Compression substrate: sparsifiers, error feedback, payloads.

Per-vector ``compress`` remains the worker-level API; the arena-aware
fast paths use :meth:`~repro.compression.base.Compressor.compress_matrix`,
which compresses the full ``(n, N)`` replica/gradient matrix per round and
returns a :class:`~repro.compression.base.BatchPayload` (per-row payloads
plus batched value/index arrays).
"""
