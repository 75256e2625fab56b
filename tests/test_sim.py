"""Tests for the simulation engine, trainer and comparison harness."""

import numpy as np
import pytest

from repro.algorithms import PSGD, SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import (
    ClusterTrainer,
    ExperimentConfig,
    ExperimentResult,
    SuiteSettings,
    make_workers,
    paper_algorithm_suite,
    run_comparison,
    run_experiment,
)
from repro.sim.engine import RoundRecord, evaluate_consensus
from repro.sim.trainer import TrainingWorker
from tests.reference.per_model import apply_gradient


@pytest.fixture
def workload():
    full = make_blobs(num_samples=300, num_classes=3, num_features=6, rng=5)
    train, validation = full.split(fraction=0.8, rng=5)
    partitions = partition_iid(train, 4, rng=5)
    factory = lambda: MLP(6, [12], 3, rng=5)
    return partitions, validation, factory


def _trainer(worker) -> ClusterTrainer:
    return ClusterTrainer.build([worker])


class TestTrainingWorker:
    def test_local_step_reduces_loss(self, workload):
        partitions, validation, factory = workload
        worker = TrainingWorker(0, factory(), partitions[0], 16, lr=0.2, rng=0)
        trainer = _trainer(worker)
        initial = trainer.batched_steps(3).mean()
        trainer.batched_steps(60)
        final = trainer.batched_steps(3).mean()
        assert final < initial

    def test_compute_gradient_does_not_move_params(self, workload):
        partitions, _, factory = workload
        worker = TrainingWorker(0, factory(), partitions[0], 16, lr=0.2, rng=0)
        trainer = _trainer(worker)
        before = worker.snapshot_params()
        trainer.compute_gradients()
        assert np.abs(trainer.arena.grads).max() > 0
        np.testing.assert_array_equal(worker.get_params(), before)

    def test_apply_gradient(self, workload):
        partitions, _, factory = workload
        worker = TrainingWorker(0, factory(), partitions[0], 16, lr=0.5, rng=0)
        before = worker.get_params()
        gradient = np.ones(worker.model_size)
        apply_gradient(worker, gradient)
        np.testing.assert_allclose(worker.get_params(), before - 0.5, atol=1e-12)

    def test_apply_gradient_custom_lr(self, workload):
        partitions, _, factory = workload
        worker = TrainingWorker(0, factory(), partitions[0], 16, lr=0.5, rng=0)
        before = worker.get_params()
        apply_gradient(worker, np.ones(worker.model_size), lr=0.1)
        np.testing.assert_allclose(worker.get_params(), before - 0.1, atol=1e-12)

    def test_evaluate_returns_loss_and_accuracy(self, workload):
        partitions, validation, factory = workload
        worker = TrainingWorker(0, factory(), partitions[0], 16, lr=0.2, rng=0)
        loss, accuracy = _trainer(worker).evaluate_vector(
            worker.get_params(), validation
        )
        assert loss > 0
        assert 0.0 <= accuracy <= 1.0

    def test_steps_counted(self, workload):
        partitions, _, factory = workload
        worker = TrainingWorker(0, factory(), partitions[0], 16, lr=0.2, rng=0)
        _trainer(worker).batched_steps(1)
        apply_gradient(worker, np.zeros(worker.model_size))
        assert worker.steps_taken == 2


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rounds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(eval_every=0)

    @pytest.mark.parametrize("field", ["lr", "lr_gamma"])
    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    def test_rates_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ExperimentConfig(**{field: value})


class TestRunExperiment:
    def test_history_structure(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=20, eval_every=5, lr=0.2, seed=0)
        result = run_experiment(PSGD(), partitions, validation, factory, config)
        # initial + 4 evaluation points
        assert len(result.history) == 5
        assert result.history[0].round_index == -1
        assert result.history[-1].round_index == 19

    def test_traffic_monotone(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=20, eval_every=5, lr=0.2, seed=0)
        result = run_experiment(PSGD(), partitions, validation, factory, config)
        traffic = [record.worker_traffic_mb for record in result.history]
        assert traffic == sorted(traffic)
        assert traffic[0] == 0.0

    def test_final_round_always_recorded(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=7, eval_every=5, seed=0)
        result = run_experiment(PSGD(), partitions, validation, factory, config)
        assert result.history[-1].round_index == 6

    def test_series_and_cost_to_reach(self):
        config = ExperimentConfig(rounds=1)
        result = ExperimentResult("x", config)
        for i, acc in enumerate([0.1, 0.5, 0.9]):
            result.history.append(
                RoundRecord(i, 1.0, 1.0, acc, float(i), 0.0, float(i) * 2, 0.0)
            )
        xs, ys = result.series("worker_traffic_mb")
        assert xs == [0.0, 1.0, 2.0]
        assert ys == [0.1, 0.5, 0.9]
        assert result.cost_to_reach(0.5) == 1.0
        assert result.cost_to_reach(0.5, "comm_time_s") == 2.0
        assert result.cost_to_reach(0.99) is None
        assert result.best_accuracy == 0.9


class TestEvaluateConsensus:
    def test_restores_worker_state(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=5, seed=0)
        workers = make_workers(factory, partitions, config)
        algorithm = PSGD()
        algorithm.setup(workers, SimulatedNetwork(4), rng=0)
        saved = workers[0].get_params()
        evaluate_consensus(algorithm, validation)
        np.testing.assert_array_equal(workers[0].get_params(), saved)


class TestComparison:
    def test_suite_has_all_seven(self):
        suite = paper_algorithm_suite()
        assert set(suite) == {
            "PSGD", "TopK-PSGD", "FedAvg", "S-FedAvg",
            "D-PSGD", "DCD-PSGD", "SAPS-PSGD",
        }

    def test_suite_uses_paper_settings(self):
        suite = paper_algorithm_suite()
        assert suite["SAPS-PSGD"]().compression_ratio == 100.0
        assert suite["TopK-PSGD"]().compressor.ratio == 1000.0
        assert suite["DCD-PSGD"]().compressor.ratio == 4.0
        assert suite["FedAvg"]().participation == 0.5

    def test_bandwidth_threading(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=0)
        bandwidth = random_uniform_bandwidth(4, rng=0)
        results = run_comparison(
            partitions, validation, factory, config,
            bandwidth=bandwidth,
            settings=SuiteSettings(saps_compression=10.0),
        )
        assert len(results) == 7
        for result in results.values():
            assert result.history[-1].comm_time_s > 0
