"""Tests for worker churn and SAPS-PSGD's robustness to it (the "R." claim).

Churn is a :class:`~repro.sim.faults.FaultPlan` — scripted, or drawn
from seeded MTTF/MTTR processes — that synchronous SAPS reads over each
round's window."""

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
from repro.sim.faults import FaultPlan


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
        # Up ~5 rounds, down ~2, one round per second.
        plan = FaultPlan.from_rates(6, mttf=5.0, mttr=2.0, horizon=60.0, seed=7)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0, fault_plan=plan),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        assert result.final_accuracy > 0.8

    def test_offline_workers_skip_sgd_and_traffic(self):
        partitions, validation, factory, config = self._workload()
        # Worker 0 offline for the whole run.
        plan = FaultPlan.parse("crash:0@0", 6)
        network = SimulatedNetwork(6)
        from repro.sim import make_workers

        algorithm = SAPSPSGD(compression_ratio=5.0, fault_plan=plan)
        workers = make_workers(factory, partitions, config)
        algorithm.setup(workers, network, rng=0)
        for t in range(10):
            algorithm.run_round(t)
        assert workers[0].steps_taken == 0
        assert network.meter.worker_bytes(0) == 0
        assert all(workers[i].steps_taken == 10 for i in range(1, 6))

    def test_scheduled_outage_then_recovery(self):
        partitions, validation, factory, config = self._workload()
        plan = FaultPlan.parse(
            "crash:1@10,recover:1@20,crash:2@15,recover:2@25", 6
        )
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0, fault_plan=plan),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        assert result.final_accuracy > 0.8

    def test_bad_churn_shape_rejected(self):
        """A plan for another worker count fails at setup, as on the
        event engine."""
        partitions, validation, factory, config = self._workload()
        from repro.sim import make_workers

        algorithm = SAPSPSGD(
            compression_ratio=5.0, fault_plan=FaultPlan.parse("crash:0@1", 3)
        )
        with pytest.raises(ValueError, match="fault plan is for 3 workers"):
            algorithm.setup(
                make_workers(factory, partitions, config), SimulatedNetwork(6),
                rng=0,
            )
