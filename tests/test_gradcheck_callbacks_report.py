"""Tests for the gradcheck test utility, engine callbacks, and the
markdown report generator."""

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD
from repro.analysis.report import comparison_report
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork
from repro.nn.layers import Linear
from repro.nn import MLP
from repro.nn.activations import ReLU
from repro.nn.module import Module, Sequential
from repro.sim import ExperimentConfig, run_experiment
from tests.gradcheck import GradCheckReport, check_gradients, numerical_gradient


class TestGradcheckUtility:
    def test_passes_on_correct_layer(self, rng):
        report = check_gradients(Linear(4, 3, rng=0), rng.normal(size=(3, 4)))
        assert report.passed
        assert "ok" in report.summary()
        # input + weight + bias
        assert len(report.entries) == 3

    def test_passes_on_composite(self, rng):
        model = Sequential(Linear(3, 5, rng=0), ReLU(), Linear(5, 2, rng=0))
        report = check_gradients(model, rng.normal(size=(4, 3)))
        assert report.passed

    def test_fails_on_broken_backward(self, rng):
        class BrokenLinear(Linear):
            def backward(self, grad_output):
                result = super().backward(grad_output)
                self.weight.grad *= 2.0  # wrong by a factor of 2
                return result

        report = check_gradients(BrokenLinear(3, 3, rng=0), rng.normal(size=(2, 3)))
        assert not report.passed
        assert "FAIL" in report.summary()
        failing = [e for e in report.entries if not e.passed]
        assert any("weight" in e.name for e in failing)

    def test_fails_on_broken_input_grad(self, rng):
        class BrokenRelu(ReLU):
            def backward(self, grad_output):
                return grad_output  # ignores the mask

        inputs = rng.normal(size=(3, 4))
        inputs[np.abs(inputs) < 0.1] = -0.5  # keep some negatives, off the kink
        inputs[0, 0] = -1.0
        report = check_gradients(BrokenRelu(), inputs)
        assert not report.passed

    def test_numerical_gradient_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda: float(np.sum(x**2)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-6)


class TestEngineCallbacks:
    @pytest.fixture
    def workload(self):
        full = make_blobs(num_samples=200, num_classes=3, num_features=6, rng=8)
        train, validation = full.split(fraction=0.8, rng=8)
        partitions = partition_iid(train, 4, rng=8)
        return partitions, validation, lambda: MLP(6, [8], 3, rng=8)

    def test_round_callback_fires_every_round(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=12, eval_every=4, lr=0.2, seed=8)
        calls = []
        run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
            round_callback=lambda t, loss: calls.append((t, loss)),
        )
        assert [t for t, _ in calls] == list(range(12))
        assert all(np.isfinite(loss) for _, loss in calls)

    def test_snapshot_callback_matches_history(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=12, eval_every=4, lr=0.2, seed=8)
        records = []
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
            snapshot_callback=records.append,
        )
        assert records == result.history


class TestComparisonReport:
    def _results(self):
        from repro.sim.engine import ExperimentResult, RoundRecord

        def build(name, accuracies):
            result = ExperimentResult(name, ExperimentConfig(rounds=3))
            for i, acc in enumerate(accuracies):
                result.history.append(
                    RoundRecord(i, 1.0, 1.0, acc, 0.1 * (i + 1), 0.0, 0.2 * (i + 1), 0.0)
                )
            return result

        return {
            "SAPS-PSGD": build("SAPS-PSGD", [0.3, 0.8, 0.95]),
            "D-PSGD": build("D-PSGD", [0.2, 0.6, 0.9]),
        }

    def test_report_structure(self):
        report = comparison_report(self._results(), title="Test run")
        assert report.startswith("# Test run")
        assert "## Final accuracy" in report
        assert "## Cost to reach" in report
        assert "## Accuracy vs traffic" in report
        assert "SAPS-PSGD" in report and "D-PSGD" in report
        assert "**Cheapest to target:**" in report

    def test_explicit_target(self):
        report = comparison_report(self._results(), target_accuracy=0.9)
        assert "90.0%" in report

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comparison_report({})

    def test_markdown_tables_well_formed(self):
        report = comparison_report(self._results())
        table_lines = [l for l in report.splitlines() if l.startswith("|")]
        # Every table row has a consistent pipe count within its table.
        assert table_lines
        for line in table_lines:
            assert line.count("|") >= 3
