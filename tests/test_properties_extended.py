"""Additional hypothesis property tests over the newer subsystems:
churn (rate-drawn fault plans), timing, crossover analysis, multipeer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SAPSPSGD
from repro.analysis.crossover import accuracy_at_cost
from repro.core.multipeer import (
    gossip_from_neighbor_sets,
    neighbor_sets_from_matchings,
    union_of_matchings,
)
from repro.sim.engine import ExperimentConfig, ExperimentResult, RoundRecord
from repro.sim.faults import FaultPlan
from repro.sim.timing import HeterogeneousCompute
from tests.graphs import is_doubly_stochastic


class TestChurnProperties:
    @given(
        mttf=st.floats(0.5, 20.0),
        mttr=st.floats(0.5, 10.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_min_active_always_respected(self, mttf, mttr, seed):
        plan = FaultPlan.from_rates(
            6, mttf=mttf, mttr=mttr, horizon=40.0, seed=seed, min_up=3
        )
        for time in [0.0] + [event.time for event in plan.events]:
            up = [
                not any(start <= time < end for start, end in plan.down_intervals(rank))
                for rank in range(6)
            ]
            assert sum(up) >= 3

    @given(seed=st.integers(0, 1000), delta=st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_trajectory_is_stable_under_requery(self, seed, delta):
        plan = FaultPlan.from_rates(5, mttf=3.0, mttr=1.0, horizon=20 * delta, seed=seed)
        saps = SAPSPSGD(fault_plan=plan, round_duration=delta)
        first = [saps.round_active(t) for t in range(20)]
        second = [saps.round_active(t) for t in reversed(range(20))][::-1]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestTimingProperties:
    @given(
        spread=st.floats(1.0, 20.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_time_at_least_any_participant(self, spread, seed):
        model = HeterogeneousCompute(6, spread=spread, jitter=0.05, rng=seed)
        participants = [0, 2, 4]
        round_time = model.round_time(3, participants)
        for rank in participants:
            assert round_time >= model.step_time(3, rank) - 1e-12

    @given(steps=st.integers(1, 10), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_step_time_linear_in_steps(self, steps, seed):
        model = HeterogeneousCompute(4, jitter=0.0, rng=seed)
        one = model.step_time(0, 1, steps=1)
        many = model.step_time(0, 1, steps=steps)
        assert many == one * steps


class TestCrossoverProperties:
    @given(
        accuracies=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_accuracy_at_cost_monotone_in_budget(self, accuracies, seed):
        result = ExperimentResult("x", ExperimentConfig(rounds=1))
        rng = np.random.default_rng(seed)
        costs = np.sort(rng.uniform(0, 10, size=len(accuracies)))
        for i, (cost, acc) in enumerate(zip(costs, accuracies)):
            result.history.append(
                RoundRecord(i, 1.0, 1.0, acc, float(cost), 0.0, 0.0, 0.0)
            )
        budgets = np.linspace(0, 11, 13)
        values = [accuracy_at_cost(result, b) or 0.0 for b in budgets]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestMultipeerProperties:
    @given(
        n=st.sampled_from([4, 6, 8, 10, 12]),
        degree=st.integers(1, 3),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_union_gossip_always_doubly_stochastic(self, n, degree, seed):
        matchings = union_of_matchings(n, degree, rng=seed)
        neighbors = neighbor_sets_from_matchings(matchings, n)
        gossip = gossip_from_neighbor_sets(neighbors, n)
        assert is_doubly_stochastic(gossip)
        # Every worker has exactly `degree` neighbours (even n).
        assert all(len(s) == degree for s in neighbors)
