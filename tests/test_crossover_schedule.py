"""Tests for crossover analysis, LR scheduling in the engine, and
SAPS local steps."""

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD
from repro.analysis.crossover import accuracy_at_cost, dominance_summary
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork
from repro.nn import MLP
from repro.sim import ExperimentConfig, make_workers, run_experiment
from repro.sim.engine import ExperimentResult, RoundRecord


def trajectory(name, points):
    """points: list of (cost, accuracy)."""
    result = ExperimentResult(name, ExperimentConfig(rounds=len(points)))
    for i, (cost, acc) in enumerate(points):
        result.history.append(
            RoundRecord(i, 1.0, 1.0, acc, cost, 0.0, cost * 2, 0.0)
        )
    return result


class TestAccuracyAtCost:
    def test_best_within_budget(self):
        result = trajectory("x", [(1, 0.3), (2, 0.7), (4, 0.9)])
        assert accuracy_at_cost(result, 2.5) == 0.7
        assert accuracy_at_cost(result, 10) == 0.9

    def test_under_first_snapshot(self):
        result = trajectory("x", [(1, 0.3)])
        assert accuracy_at_cost(result, 0.5) is None

    def test_monotone_in_budget(self):
        result = trajectory("x", [(1, 0.5), (2, 0.4), (3, 0.8)])
        values = [accuracy_at_cost(result, b) for b in [1, 2, 3]]
        assert values == sorted(values)


class TestDominanceSummary:
    def test_total_dominance(self):
        results = {
            "w": trajectory("w", [(0.1, 0.9), (1.0, 0.95)]),
            "l": trajectory("l", [(0.1, 0.1), (1.0, 0.2)]),
        }
        summary = dominance_summary(results)
        assert summary["w"] == pytest.approx(1.0)
        assert summary["l"] == pytest.approx(0.0)

    def test_fractions_sum_to_one(self):
        results = {
            "a": trajectory("a", [(0.1, 0.6), (1.0, 0.6)]),
            "b": trajectory("b", [(0.5, 0.9), (1.0, 0.9)]),
        }
        summary = dominance_summary(results)
        assert sum(summary.values()) == pytest.approx(1.0)

    def test_on_real_comparison(self, blob_splits):
        """SAPS with heavy compression should dominate the low-budget
        frontier against itself with no compression."""
        partitions, validation = blob_splits
        config = ExperimentConfig(rounds=30, eval_every=5, lr=0.2, seed=9)
        results = {}
        for name, c in [("sparse", 20.0), ("dense", 1.0)]:
            results[name] = run_experiment(
                SAPSPSGD(compression_ratio=c),
                partitions, validation,
                lambda: MLP(8, [16], 4, rng=9), config, SimulatedNetwork(4),
            )
            results[name].algorithm = name
        summary = dominance_summary(results)
        assert summary["sparse"] > summary["dense"]


class TestLRSchedule:
    def test_milestones_decay_worker_lrs(self, blob_splits):
        partitions, validation = blob_splits
        config = ExperimentConfig(
            rounds=10, eval_every=5, lr=1.0, seed=9,
            lr_milestones=[3, 6], lr_gamma=0.1,
        )
        workers = make_workers(lambda: MLP(8, [16], 4, rng=9), partitions, config)
        algorithm = SAPSPSGD(compression_ratio=5.0)
        network = SimulatedNetwork(4)
        algorithm.setup(workers, network, rng=9)

        from repro.sim.engine import run_experiment as _run  # use engine loop

        result = _run(
            algorithm, partitions, validation,
            lambda: MLP(8, [16], 4, rng=9), config, SimulatedNetwork(4),
        )
        del result
        # Run the engine directly on fresh workers to inspect LR decay.
        config2 = ExperimentConfig(
            rounds=7, eval_every=7, lr=1.0, seed=9,
            lr_milestones=[3, 6], lr_gamma=0.1,
        )
        algorithm2 = SAPSPSGD(compression_ratio=5.0)
        _run(
            algorithm2, partitions, validation,
            lambda: MLP(8, [16], 4, rng=9), config2, SimulatedNetwork(4),
        )
        for worker in algorithm2.workers:
            assert worker.optimizer.lr == pytest.approx(0.01)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lr_gamma=0.0)

    def test_milestones_sorted(self):
        config = ExperimentConfig(lr_milestones=[9, 3, 6])
        assert config.lr_milestones == [3, 6, 9]


class TestSAPSLocalSteps:
    def test_steps_multiplied(self, blob_splits):
        partitions, validation = blob_splits
        config = ExperimentConfig(rounds=5, eval_every=5, lr=0.1, seed=9)
        workers = make_workers(lambda: MLP(8, [16], 4, rng=9), partitions, config)
        algorithm = SAPSPSGD(compression_ratio=5.0, local_steps=3)
        algorithm.setup(workers, SimulatedNetwork(4), rng=9)
        for t in range(5):
            algorithm.run_round(t)
        assert all(worker.steps_taken == 15 for worker in workers)

    def test_same_traffic_as_single_step(self, blob_splits):
        partitions, validation = blob_splits
        config = ExperimentConfig(rounds=10, eval_every=10, lr=0.1, seed=9)
        traffic = {}
        for steps in [1, 4]:
            network = SimulatedNetwork(4)
            result = run_experiment(
                SAPSPSGD(compression_ratio=5.0, local_steps=steps),
                partitions, validation,
                lambda: MLP(8, [16], 4, rng=9), config, network,
            )
            traffic[steps] = result.history[-1].worker_traffic_mb
        assert traffic[1] == pytest.approx(traffic[4])

    def test_invalid_local_steps(self):
        with pytest.raises(ValueError):
            SAPSPSGD(local_steps=0)


class TestSetupValidation:
    def test_mismatched_architectures_rejected(self, blob_splits):
        partitions, validation = blob_splits
        config = ExperimentConfig(rounds=5, seed=9)
        workers = make_workers(lambda: MLP(8, [16], 4, rng=9), partitions, config)
        # Swap one worker's model for a different architecture.
        from repro.sim.trainer import TrainingWorker

        workers[2] = TrainingWorker(
            2, MLP(8, [32], 4, rng=9), partitions[2], 16, lr=0.1, rng=9
        )
        with pytest.raises(ValueError, match="architecture"):
            SAPSPSGD(compression_ratio=5.0).setup(workers, SimulatedNetwork(4))
