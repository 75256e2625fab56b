"""Convergence theory: spectral properties, consensus dynamics, bounds."""

from repro.theory.spectral import (
    consensus_factor,
    estimate_rho,
    rounds_to_epsilon,
)
from repro.theory.consensus import random_initial_states, simulate_consensus
from repro.theory.bounds import ProblemConstants, theorem2_bound

__all__ = [
    "estimate_rho",
    "consensus_factor",
    "rounds_to_epsilon",
    "simulate_consensus",
    "random_initial_states",
    "ProblemConstants",
    "theorem2_bound",
]
