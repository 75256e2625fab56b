"""Tests for worker churn and SAPS-PSGD's robustness to it (the "R." claim)."""

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD
from repro.core.gossip import (
    AdaptivePeerSelector,
    FixedRingSelector,
    RandomPeerSelector,
)
from repro.core.matching import is_valid_matching
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import ExperimentConfig, run_experiment
from repro.sim.dynamics import MarkovChurn
from repro.sim.faults import FaultPlan


class TestMarkovChurn:
    def test_round_zero_everyone_up(self):
        churn = MarkovChurn(8, rng=0)
        assert churn.active_at(0).all()

    def test_deterministic_and_order_independent(self):
        a = MarkovChurn(8, drop_probability=0.2, rng=3)
        b = MarkovChurn(8, drop_probability=0.2, rng=3)
        # Query in different orders; trajectories must agree.
        masks_a = [a.active_at(t) for t in [5, 2, 9, 0]]
        masks_b = [b.active_at(t) for t in [0, 9, 2, 5]]
        for t, mask in zip([5, 2, 9, 0], masks_a):
            np.testing.assert_array_equal(mask, b.active_at(t))
        del masks_b

    def test_min_active_enforced(self):
        churn = MarkovChurn(
            4, drop_probability=0.95, return_probability=0.01, min_active=2, rng=0
        )
        for t in range(50):
            assert churn.active_at(t).sum() >= 2

    def test_stationary_availability_approximate(self):
        churn = MarkovChurn(
            20, drop_probability=0.1, return_probability=0.3, min_active=0, rng=1
        )
        measured = churn.availability_fraction(2000)
        expected = 0.3 / (0.1 + 0.3)
        assert measured == pytest.approx(expected, abs=0.07)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovChurn(1)
        with pytest.raises(ValueError):
            MarkovChurn(4, drop_probability=1.5)
        with pytest.raises(ValueError):
            MarkovChurn(4, return_probability=0.0)
        with pytest.raises(ValueError):
            MarkovChurn(4, min_active=9)
        with pytest.raises(ValueError):
            MarkovChurn(4, rng=0).active_at(-1)


class TestSelectorsUnderChurn:
    def test_adaptive_matches_only_active(self):
        bandwidth = random_uniform_bandwidth(8, rng=0)
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        active = np.array([True, True, False, True, True, False, True, True])
        for t in range(10):
            result = selector.select(t, active=active)
            assert is_valid_matching(result.matching, 8)
            for a, b in result.matching:
                assert active[a] and active[b]
            assert len(result.matching) == 3  # 6 active workers

    def test_random_matches_only_active(self):
        selector = RandomPeerSelector(6, rng=0)
        active = np.array([True, False, True, True, False, True])
        result = selector.select(0, active=active)
        assert len(result.matching) == 2
        for a, b in result.matching:
            assert active[a] and active[b]

    def test_ring_loses_pairs_under_churn(self):
        """The fixed ring cannot re-pair around a failure: one down
        worker also strands its partner."""
        selector = FixedRingSelector(6)
        active = np.array([True, False, True, True, True, True])
        result = selector.select(0, active=active)  # pairs (0,1),(2,3),(4,5)
        assert (2, 3) in result.matching and (4, 5) in result.matching
        assert len(result.matching) == 2  # (0,1) lost; 0 stranded

    def test_adaptive_repairs_around_same_failure(self):
        bandwidth = np.ones((6, 6)) - np.eye(6)
        selector = AdaptivePeerSelector(bandwidth, rng=0)
        active = np.array([True, False, True, True, True, True])
        result = selector.select(0, active=active)
        # 5 active workers -> 2 pairs, worker 0 matched with someone.
        matched = {v for pair in result.matching for v in pair}
        assert len(result.matching) == 2
        assert 1 not in matched


class TestSAPSUnderChurn:
    def _workload(self, seed=31):
        full = make_blobs(num_samples=440, num_classes=4, num_features=8, rng=seed)
        train, validation = full.split(fraction=0.8, rng=seed)
        partitions = partition_iid(train, 6, rng=seed)
        config = ExperimentConfig(
            rounds=60, batch_size=16, lr=0.2, eval_every=20, seed=seed
        )
        factory = lambda: MLP(8, [16], 4, rng=seed)
        return partitions, validation, factory, config

    def test_converges_despite_churn(self):
        partitions, validation, factory, config = self._workload()
        churn = MarkovChurn(
            6, drop_probability=0.2, return_probability=0.5, min_active=2, rng=7
        )
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0, churn=churn),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        assert result.final_accuracy > 0.8

    def test_offline_workers_skip_sgd_and_traffic(self):
        partitions, validation, factory, config = self._workload()
        # Worker 0 offline for the whole run.
        churn = FaultPlan.parse("crash:0@0", 6).round_churn(1.0)
        network = SimulatedNetwork(6)
        from repro.sim import make_workers

        algorithm = SAPSPSGD(compression_ratio=5.0, churn=churn)
        workers = make_workers(factory, partitions, config)
        algorithm.setup(workers, network, rng=0)
        for t in range(10):
            algorithm.run_round(t)
        assert workers[0].steps_taken == 0
        assert network.meter.worker_bytes(0) == 0
        assert all(workers[i].steps_taken == 10 for i in range(1, 6))

    def test_scheduled_outage_then_recovery(self):
        partitions, validation, factory, config = self._workload()
        churn = FaultPlan.parse(
            "crash:1@10,recover:1@20,crash:2@15,recover:2@25", 6
        ).round_churn(1.0)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0, churn=churn),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        assert result.final_accuracy > 0.8

    def test_bad_churn_shape_rejected(self):
        partitions, validation, factory, config = self._workload()

        class BadChurn:
            def active_at(self, round_index):
                return np.ones(3, dtype=bool)

        from repro.sim import make_workers

        algorithm = SAPSPSGD(compression_ratio=5.0, churn=BadChurn())
        algorithm.setup(
            make_workers(factory, partitions, config), SimulatedNetwork(6), rng=0
        )
        with pytest.raises(ValueError):
            algorithm.run_round(0)
