"""Tests for the Coordinator (Algorithm 1).  The worker half of the
protocol, Eq. 7's masked exchange, is checked on the production rounds in
``tests/test_algorithms.py``."""

import pytest

from repro.core.protocol import Coordinator
from repro.network.bandwidth import random_uniform_bandwidth


@pytest.fixture
def coordinator():
    return Coordinator(random_uniform_bandwidth(6, rng=0), base_seed=42, rng=0)


class TestCoordinator:
    def test_plan_round_contents(self, coordinator):
        plan = coordinator.plan_round(0)
        assert plan.round_index == 0
        assert len(plan.matching) == 3
        assert plan.partners.shape == (6,)

    def test_mask_seed_deterministic_per_round(self):
        a = Coordinator(random_uniform_bandwidth(4, rng=0), base_seed=7, rng=0)
        b = Coordinator(random_uniform_bandwidth(4, rng=0), base_seed=7, rng=0)
        assert a.plan_round(0).mask_seed == b.plan_round(0).mask_seed

    def test_mask_seed_varies_per_round(self, coordinator):
        seeds = {coordinator.plan_round(t).mask_seed for t in range(5)}
        assert len(seeds) == 5

    def test_replanning_same_round_rejected(self, coordinator):
        coordinator.plan_round(0)
        with pytest.raises(ValueError):
            coordinator.plan_round(0)

    def test_round_end_tracking(self, coordinator):
        coordinator.plan_round(0)
        for rank in range(6):
            assert not coordinator.round_complete()
            coordinator.notify_round_end(rank)
        assert coordinator.round_complete()

    def test_duplicate_round_end_rejected(self, coordinator):
        coordinator.plan_round(0)
        coordinator.notify_round_end(0)
        with pytest.raises(ValueError):
            coordinator.notify_round_end(0)

    def test_out_of_range_rank(self, coordinator):
        coordinator.plan_round(0)
        with pytest.raises(ValueError):
            coordinator.notify_round_end(6)

    def test_partners_mirror_matching(self, coordinator):
        plan = coordinator.plan_round(0)
        for a, b in plan.matching:
            assert plan.partners[a] == b
            assert plan.partners[b] == a
