"""Compression substrate: sparsifiers, error feedback, payloads.

Each compressor takes the full ``(n, N)`` replica/gradient matrix of one
round and returns a :class:`~repro.compression.base.BatchPayload`
(the kept values of every row and their indices).
"""
