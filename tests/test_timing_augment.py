"""Tests for compute-time models (stragglers)."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork
from repro.sim import (
    ConstantCompute,
    ExperimentConfig,
    HeterogeneousCompute,
    run_experiment,
)


class TestConstantCompute:
    def test_step_time(self):
        model = ConstantCompute(0.2)
        assert model.step_time(0, 3) == pytest.approx(0.2)
        assert model.step_time(5, 0, steps=4) == pytest.approx(0.8)

    def test_round_time_is_max(self):
        model = ConstantCompute(0.1)
        assert model.round_time(0, [0, 1, 2]) == pytest.approx(0.1)
        assert model.round_time(0, []) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantCompute(0.0)


class TestHeterogeneousCompute:
    def test_spread_creates_stragglers(self):
        model = HeterogeneousCompute(8, mean_step_time=0.1, spread=8.0, rng=0)
        assert model.worker_means.max() / model.worker_means.min() > 2.0

    def test_round_time_gated_by_straggler(self):
        model = HeterogeneousCompute(8, spread=8.0, jitter=0.0, rng=0)
        full = model.round_time(0, list(range(8)))
        straggler = int(np.argmax(model.worker_means))
        without_straggler = model.round_time(
            0, [r for r in range(8) if r != straggler]
        )
        assert full > without_straggler

    def test_step_time_deterministic(self):
        model = HeterogeneousCompute(4, rng=0)
        assert model.step_time(3, 2) == model.step_time(3, 2)
        assert model.step_time(3, 2) != model.step_time(4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousCompute(0)
        with pytest.raises(ValueError):
            HeterogeneousCompute(4, spread=0.5)
        with pytest.raises(ValueError):
            HeterogeneousCompute(4, rng=0).step_time(0, 9)


class TestRoundTimePartialParticipation:
    """round_time over participant subsets: the FedAvg/churn regime."""

    def test_subset_max_only_over_participants(self):
        model = HeterogeneousCompute(6, spread=8.0, jitter=0.0, rng=2)
        participants = [1, 3, 4]
        expected = max(model.step_time(0, rank) for rank in participants)
        assert model.round_time(0, participants) == pytest.approx(expected)

    def test_singleton_participant(self):
        model = HeterogeneousCompute(4, jitter=0.0, rng=0)
        assert model.round_time(2, [3]) == pytest.approx(model.step_time(2, 3))

    def test_empty_participants_is_zero(self):
        model = HeterogeneousCompute(4, rng=0)
        assert model.round_time(0, []) == 0.0
        assert ConstantCompute(0.5).round_time(0, []) == 0.0

    def test_steps_scale_subset_round(self):
        model = ConstantCompute(0.2)
        assert model.round_time(0, [0, 2], steps=3) == pytest.approx(0.6)

    def test_excluding_straggler_shrinks_round(self):
        model = HeterogeneousCompute(5, spread=16.0, jitter=0.0, rng=1)
        everyone = model.round_time(0, list(range(5)))
        straggler = int(np.argmax(model.worker_means))
        without = model.round_time(0, [r for r in range(5) if r != straggler])
        assert without < everyone
        assert everyone == pytest.approx(model.step_time(0, straggler))


class TestEngineComputeIntegration:
    @pytest.fixture
    def workload(self):
        full = make_blobs(num_samples=200, num_classes=3, num_features=6, rng=14)
        train, validation = full.split(fraction=0.8, rng=14)
        partitions = partition_iid(train, 4, rng=14)
        from repro.nn import MLP

        return partitions, validation, lambda: MLP(6, [8], 3, rng=14)

    def test_compute_time_recorded(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=14)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
            compute_model=ConstantCompute(0.1),
        )
        final = result.history[-1]
        assert final.compute_time_s == pytest.approx(1.0)  # 10 rounds x 0.1
        assert final.time_s == pytest.approx(
            final.comm_time_s + final.compute_time_s
        )

    def test_no_compute_model_means_zero(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=5, eval_every=5, lr=0.2, seed=14)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
        )
        assert result.history[-1].compute_time_s == 0.0

    def test_fedavg_only_waits_for_selected(self, workload):
        """Partial participation dodges stragglers: FedAvg's compute time
        per round is the max over the *sampled* workers only."""
        partitions, validation, factory = workload
        compute = HeterogeneousCompute(4, spread=16.0, jitter=0.0, rng=3)
        config = ExperimentConfig(rounds=30, eval_every=30, lr=0.2, seed=14)

        def run(algorithm):
            return run_experiment(
                algorithm, partitions, validation, factory, config,
                SimulatedNetwork(4), compute_model=compute,
            ).history[-1].compute_time_s

        fedavg_time = run(FedAvg(participation=0.5, local_steps=1))
        saps_time = run(SAPSPSGD(compression_ratio=5.0))
        # SAPS waits for everyone incl. the straggler every round; FedAvg
        # only when the straggler is sampled (about half the rounds).
        assert fedavg_time < saps_time
