"""Tests for the theory package: spectral properties, consensus, bounds."""

import numpy as np
import pytest

from repro.core.gossip import (
    RandomPeerSelector,
    gossip_matrix_from_matching,
    ring_gossip_matrix,
)
from repro.theory.consensus import ConsensusTrace, consensus_distance
from repro.theory import (
    ProblemConstants,
    consensus_factor,
    estimate_rho,
    random_initial_states,
    rounds_to_epsilon,
    simulate_consensus,
    theorem2_bound,
)
from repro.theory.bounds import d1_constant, d2_constant
from repro.theory.spectral import expected_wtw, second_largest_eigenvalue
from tests.graphs import is_doubly_stochastic


class TestSpectral:
    def test_doubly_stochastic_checks(self):
        assert is_doubly_stochastic(np.eye(3))
        assert is_doubly_stochastic(ring_gossip_matrix(6))
        assert not is_doubly_stochastic(np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert not is_doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]))

    def test_second_eigenvalue_identity(self):
        assert second_largest_eigenvalue(np.eye(4)) == pytest.approx(1.0)

    def test_second_eigenvalue_complete_averaging(self):
        averaging = np.full((4, 4), 0.25)
        assert second_largest_eigenvalue(averaging) == pytest.approx(0.0, abs=1e-12)

    def test_single_matching_wtw_has_rho_one(self):
        """One fixed matching is not connected → ρ = 1 (no consensus)."""
        gossip = gossip_matrix_from_matching([(0, 1), (2, 3)], 4)
        rho = second_largest_eigenvalue(expected_wtw(lambda t: gossip, 10))
        assert rho == pytest.approx(1.0)

    def test_random_matching_rho_below_one(self):
        """Random perfect matchings over the complete graph are connected
        in expectation → ρ < 1 (Assumption 3 satisfied)."""
        selector = RandomPeerSelector(8, rng=0)
        rho = estimate_rho(lambda t: selector.select(t).gossip, num_samples=300)
        assert rho < 1.0

    def test_consensus_factor_limits(self):
        # c = 1 (no sparsification): factor = ρ².
        assert consensus_factor(1.0, 0.5) == pytest.approx(0.25)
        # c → ∞: factor → 1 (no progress).
        assert consensus_factor(1e9, 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_consensus_factor_monotone_in_c(self):
        factors = [consensus_factor(c, 0.5) for c in [1, 2, 10, 100]]
        assert factors == sorted(factors)

    def test_rounds_to_epsilon(self):
        assert rounds_to_epsilon(0.5) == 10  # 2^-10 < 1e-3
        with pytest.raises(ValueError):
            rounds_to_epsilon(1.0)


class TestConsensusSimulation:
    def test_plain_gossip_reaches_consensus(self):
        states = random_initial_states(8, 20, rng=0)
        selector = RandomPeerSelector(8, rng=0)
        trace = simulate_consensus(
            states, lambda t: selector.select(t).gossip, rounds=200
        )
        assert trace.final < 1e-6 * trace.distances[0]

    def test_sparsified_gossip_still_converges(self):
        states = random_initial_states(8, 50, rng=0)
        selector = RandomPeerSelector(8, rng=1)
        trace = simulate_consensus(
            states, lambda t: selector.select(t).gossip,
            rounds=400, compression_ratio=5.0, seed=0,
        )
        assert trace.final < 1e-2 * trace.distances[0]

    def test_sparser_is_slower(self):
        """Lemma 2: larger c → contraction factor closer to 1."""
        def final_distance(c):
            states = random_initial_states(8, 50, rng=3)
            selector = RandomPeerSelector(8, rng=3)
            trace = simulate_consensus(
                states, lambda t: selector.select(t).gossip,
                rounds=100, compression_ratio=c, seed=3,
            )
            return trace.final

        assert final_distance(1.0) < final_distance(10.0)

    def test_empirical_rate_close_to_lemma2_prediction(self):
        """The measured contraction must not beat the (q+pρ²) bound by
        much, nor be wildly slower — the bound is per-coordinate tight in
        expectation for random matchings."""
        n, c = 8, 4.0
        selector = RandomPeerSelector(n, rng=5)
        rho = estimate_rho(lambda t: selector.select(t).gossip, num_samples=400)
        predicted = consensus_factor(c, rho)
        states = random_initial_states(n, 200, rng=5)
        run_selector = RandomPeerSelector(n, rng=7)
        trace = simulate_consensus(
            states, lambda t: run_selector.select(t).gossip,
            rounds=150, compression_ratio=c, seed=5,
        )
        measured = trace.empirical_rate()
        assert measured == pytest.approx(predicted, abs=0.1)

    def test_mean_preserved(self):
        states = random_initial_states(6, 10, rng=0)
        mean_before = states.mean(axis=0)
        selector = RandomPeerSelector(6, rng=0)
        trace = simulate_consensus(
            states, lambda t: selector.select(t).gossip, rounds=0
        )
        assert len(trace.distances) == 1
        # rounds=0: nothing changed; deeper mean-preservation is covered
        # by the protocol tests (doubly stochastic exchanges).
        np.testing.assert_array_equal(states.mean(axis=0), mean_before)

    def test_distance_zero_at_consensus(self):
        states = np.ones((5, 3))
        assert consensus_distance(states) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            simulate_consensus(np.zeros(3), lambda t: np.eye(3), 1)


class TestBounds:
    def test_d_constants_positive_and_growing_in_c(self):
        assert d1_constant(1.0, 0.5) > 0
        assert d1_constant(100.0, 0.5) > d1_constant(10.0, 0.5)
        assert d2_constant(100.0, 0.5) > d2_constant(10.0, 0.5)

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            d1_constant(10.0, 1.0)
        with pytest.raises(ValueError):
            d2_constant(10.0, 1.0)

    def test_bound_decreases_in_T(self):
        constants = ProblemConstants()
        values = [
            theorem2_bound(constants, 100.0, 0.5, 32, t)
            for t in [100, 1000, 10000]
        ]
        assert values == sorted(values, reverse=True)

    def test_bound_scales_as_inv_sqrt_nT_asymptotically(self):
        """Theorem 2's Remark: for large T the 1/√(nT) term dominates, so
        quadrupling T should roughly halve the bound."""
        constants = ProblemConstants(sigma=1.0)
        # c=100 makes D₁ enormous, so the 1/T transient persists until
        # very large T — exactly the paper's "when T is large enough".
        t1 = theorem2_bound(constants, 100.0, 0.5, 32, 10**18)
        t4 = theorem2_bound(constants, 100.0, 0.5, 32, 4 * 10**18)
        assert t1 / t4 == pytest.approx(2.0, rel=0.05)

    def test_zero_spread_kills_init_term(self):
        constants_zero = ProblemConstants(initial_spread=0.0)
        constants_spread = ProblemConstants(initial_spread=100.0)
        assert theorem2_bound(constants_spread, 10.0, 0.5, 8, 100) > theorem2_bound(
            constants_zero, 10.0, 0.5, 8, 100
        )

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            ProblemConstants(lipschitz=0.0)
        with pytest.raises(ValueError):
            ProblemConstants(sigma=-1.0)
        with pytest.raises(ValueError):
            theorem2_bound(ProblemConstants(), 10.0, 0.5, 0, 10)
