"""Theorem 2's convergence bound, evaluable.

The bound (Eq. 21) on the running average of ``E‖∇f(X̄_t)‖²``:

    6σ(f(X₀) − f*) + 3σ²        6√3·L(f(X₀) − f*) + 2L²D₁n
    ---------------------   +   ---------------------------
          √(nT)                              T

    + 3L²D₁nζ²/(σ²T) + 2L²D₂‖X₀ − X̄₀1ᵀ‖²_F/(nT)

with ``D₁ = 2/(1 − (q+pρ)^{1/2})²`` and ``D₂ = 2/(1 − (q+pρ²))``.
This module computes the bound and its building blocks so benches can
show the O(1/√(nT)) behaviour and the effect of ``c`` and ``ρ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.theory.spectral import consensus_factor


@dataclass
class ProblemConstants:
    """Constants of the optimization problem (Assumptions in §III-A)."""

    lipschitz: float = 1.0  # L
    sigma: float = 1.0  # stochastic-gradient std bound σ
    zeta: float = 0.0  # data-heterogeneity bound ζ
    f0_minus_fstar: float = 1.0  # f(X₀) − f*
    initial_spread: float = 0.0  # ‖X₀ − X̄₀1ᵀ‖²_F (0 for shared init)

    def __post_init__(self) -> None:
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.sigma < 0 or self.zeta < 0:
            raise ValueError("sigma and zeta must be non-negative")
        if self.f0_minus_fstar < 0:
            raise ValueError("f0_minus_fstar must be non-negative")
        if self.initial_spread < 0:
            raise ValueError("initial_spread must be non-negative")


def d1_constant(compression_ratio: float, rho: float) -> float:
    """``D₁ = 2/(1 − (q + pρ)^{1/2})²`` (Theorem 1's proof)."""
    p = 1.0 / compression_ratio
    q = 1.0 - p
    inner = q + p * rho
    if inner >= 1.0:
        raise ValueError(
            f"q + p·ρ = {inner} >= 1; Assumption 3 (ρ < 1) is required"
        )
    return 2.0 / (1.0 - np.sqrt(inner)) ** 2


def d2_constant(compression_ratio: float, rho: float) -> float:
    """``D₂ = 2/(1 − (q + pρ²))``."""
    factor = consensus_factor(compression_ratio, rho)
    if factor >= 1.0:
        raise ValueError(f"q + p·ρ² = {factor} >= 1; need ρ < 1")
    return 2.0 / (1.0 - factor)


def theorem2_bound(
    constants: ProblemConstants,
    compression_ratio: float,
    rho: float,
    num_workers: int,
    rounds: int,
) -> float:
    """Evaluate the right-hand side of Eq. (21)."""
    if num_workers <= 0 or rounds <= 0:
        raise ValueError("num_workers and rounds must be positive")
    lipschitz = constants.lipschitz
    sigma = constants.sigma
    d1 = d1_constant(compression_ratio, rho)
    d2 = d2_constant(compression_ratio, rho)
    gap = constants.f0_minus_fstar

    term_sqrt = (6.0 * sigma * gap + 3.0 * sigma**2) / np.sqrt(
        float(num_workers) * float(rounds)
    )
    term_linear = (
        6.0 * np.sqrt(3.0) * lipschitz * gap + 2.0 * lipschitz**2 * d1 * num_workers
    ) / rounds
    if sigma > 0:
        term_zeta = (
            3.0 * lipschitz**2 * d1 * num_workers * constants.zeta**2
        ) / (sigma**2 * rounds)
    else:
        term_zeta = 0.0
    term_init = (
        2.0 * lipschitz**2 * d2 * constants.initial_spread
    ) / (num_workers * rounds)
    return float(term_sqrt + term_linear + term_zeta + term_init)
