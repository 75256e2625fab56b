"""Empirical consensus dynamics (Theorem 1 / Lemma 2, measured).

:func:`simulate_consensus` iterates the *pure averaging* part of Eq. (7)
(no gradients): ``X_{t+1} = X_t ∘ ¬M_t + (X_t ∘ M_t)·W_t`` and reports
the consensus distance per round, so Lemma 2's predicted contraction
``(q + pρ²)^t`` can be checked against measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.compression.random_mask import generate_mask
from repro.nn.arena import consensus_fold
from repro.utils.rng import SeedLike, as_generator, derive_seed


def consensus_distance(states: np.ndarray) -> float:
    """``(1/n)·Σᵢ‖xᵢ − x̄‖²`` for states of shape ``(n, dim)``, in float64."""
    return consensus_fold(np.asarray(states, dtype=np.float64))[1]


@dataclass
class ConsensusTrace:
    """Per-round consensus distances of one simulation."""

    distances: List[float]

    @property
    def final(self) -> float:
        return self.distances[-1]

    def empirical_rate(self) -> float:
        """Geometric-mean per-round contraction over the trace."""
        ratios = [
            later / earlier
            for earlier, later in zip(self.distances[:-1], self.distances[1:])
            if earlier > 0
        ]
        if not ratios:
            return 0.0
        return float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))


def simulate_consensus(
    initial_states: np.ndarray,
    gossip_sampler: Callable[[int], np.ndarray],
    rounds: int,
    compression_ratio: float = 1.0,
    seed: int = 0,
) -> ConsensusTrace:
    """Run sparsified gossip averaging (no gradients) for ``rounds``.

    Parameters
    ----------
    initial_states:
        ``(n, dim)`` worker states.
    gossip_sampler:
        ``t ↦ W_t`` (an ``(n, n)`` doubly stochastic matrix).
    compression_ratio:
        The paper's ``c``; 1 disables masking (classic gossip).

    Implements ``X_{t+1} = X_t ∘ ¬M_t + (X_t ∘ M_t)·W_t`` with the shared
    per-round mask, i.e. masked coordinates are averaged via ``W_t`` and
    unmasked coordinates stay put.
    """
    states = np.asarray(initial_states, dtype=np.float64).copy()
    if states.ndim != 2:
        raise ValueError(f"initial_states must be (n, dim), got {states.shape}")
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    n, dim = states.shape
    distances = [consensus_distance(states)]
    for round_index in range(rounds):
        gossip = np.asarray(gossip_sampler(round_index), dtype=np.float64)
        if gossip.shape != (n, n):
            raise ValueError(
                f"gossip matrix has shape {gossip.shape}, expected {(n, n)}"
            )
        if compression_ratio > 1.0:
            mask_seed = derive_seed(seed, "consensus-mask", round_index)
            mask = generate_mask(dim, compression_ratio, mask_seed)
        else:
            mask = np.ones(dim, dtype=bool)
        mixed = gossip.T @ states  # row i of result = Σ_j W_ji x_j = Σ_j W_ij x_j (W symmetric here)
        states[:, mask] = mixed[:, mask]
        distances.append(consensus_distance(states))
    return ConsensusTrace(distances=distances)


def random_initial_states(
    num_workers: int, dim: int, rng: SeedLike = None
) -> np.ndarray:
    """Convenience: i.i.d. standard Gaussian worker states."""
    rng = as_generator(rng)
    return rng.normal(0.0, 1.0, size=(num_workers, dim))
