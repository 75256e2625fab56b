"""Convergence theory: spectral properties, consensus dynamics, bounds."""

from repro.theory.spectral import (
    consensus_factor,
    estimate_rho,
    expected_wtw,
    is_doubly_stochastic,
    rounds_to_epsilon,
    second_largest_eigenvalue,
    spectral_gap,
)
from repro.theory.consensus import (
    ConsensusTrace,
    consensus_distance,
    random_initial_states,
    simulate_consensus,
)
from repro.theory.bounds import (
    ProblemConstants,
    d1_constant,
    d2_constant,
    dominant_regime,
    theorem2_bound,
    theorem2_step_size,
)
from repro.theory.streaming import StreamingMoments, arena_consensus

__all__ = [
    "is_doubly_stochastic",
    "second_largest_eigenvalue",
    "spectral_gap",
    "expected_wtw",
    "estimate_rho",
    "consensus_factor",
    "rounds_to_epsilon",
    "ConsensusTrace",
    "consensus_distance",
    "simulate_consensus",
    "random_initial_states",
    "ProblemConstants",
    "d1_constant",
    "d2_constant",
    "theorem2_bound",
    "theorem2_step_size",
    "dominant_regime",
    "StreamingMoments",
    "arena_consensus",
]
