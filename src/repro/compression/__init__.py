"""Compression substrate: sparsifiers, error feedback, payloads.

Each compressor takes the full ``(n, N)`` replica/gradient matrix of one
round and returns a :class:`~repro.compression.base.BatchPayload`
(per-row payloads plus batched value/index arrays).
"""
