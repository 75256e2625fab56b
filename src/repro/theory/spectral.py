"""Spectral analysis of gossip matrices (Assumption 3 and Eq. 5).

The convergence theory needs ``ρ``, the second-largest eigenvalue of
``E[WᵀW]``, to be strictly below 1.  For random per-round matchings the
expectation is estimated by sampling; for fixed matrices it is exact.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.compression.base import check_compression_ratio
from repro.utils.validation import check_square


def second_largest_eigenvalue(matrix: np.ndarray) -> float:
    """Second-largest eigenvalue (by value) of a symmetric PSD matrix.

    For a doubly stochastic symmetric matrix the largest eigenvalue is 1
    with eigenvector ``1``; this returns the next one — the ``ρ`` of
    Assumption 3 when applied to ``E[WᵀW]``.
    """
    matrix = check_square(np.asarray(matrix, dtype=np.float64))
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues.size < 2:
        return 0.0
    return float(np.sort(eigenvalues)[-2])


def expected_wtw(
    gossip_sampler: Callable[[int], np.ndarray],
    num_samples: int = 200,
) -> np.ndarray:
    """Monte-Carlo estimate of ``E[WᵀW]`` over sampled gossip matrices.

    ``gossip_sampler(k)`` must return the ``k``-th sample of ``W``.  For
    matching gossip ``W = ½(I + P)``, with ``P`` a symmetric involution,
    ``WᵀW = W`` holds exactly; the product is formed explicitly because a
    sampler may return a ``W`` that is not idempotent, such as the
    Metropolis weights of a ``MultiPeerSelectionResult``.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    first = gossip_sampler(0)
    accumulator = first.T @ first
    for index in range(1, num_samples):
        sample = gossip_sampler(index)
        accumulator = accumulator + sample.T @ sample
    return accumulator / num_samples


def estimate_rho(
    gossip_sampler: Callable[[int], np.ndarray], num_samples: int = 200
) -> float:
    """``ρ`` of Assumption 3, estimated by sampling the selector."""
    return second_largest_eigenvalue(expected_wtw(gossip_sampler, num_samples))


def consensus_factor(compression_ratio: float, rho: float) -> float:
    """Lemma 2's per-round contraction factor ``q + p·ρ²`` with
    ``p = 1/c``, ``q = 1 − 1/c``.

    Interpretation: expected squared consensus distance contracts by this
    factor per gossip round under mask sparsification.  It approaches 1
    as ``c`` grows — the sparser the exchange, the slower consensus.
    """
    p = 1.0 / check_compression_ratio(compression_ratio)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    q = 1.0 - p
    return q + p * rho**2


def rounds_to_epsilon(factor: float) -> int:
    """Rounds needed for the contraction ``factor`` to shrink consensus
    error below ε = 1e-3 (from 1)."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"factor must be in (0, 1), got {factor}")
    return int(np.ceil(np.log(1e-3) / np.log(factor)))
