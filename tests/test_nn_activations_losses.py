"""Tests for activations and losses."""

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.activations import ReLU
from repro.sim.trainer import evaluate_forward
from tests.conftest import numerical_gradient


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU])
    def test_gradients(self, rng, grad_check, layer_cls):
        # Avoid the ReLU kink at exactly zero.
        inputs = rng.normal(size=(4, 6))
        inputs[np.abs(inputs) < 1e-3] = 0.5
        grad_check(layer_cls(), inputs)

    def test_relu_values(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])



class TestCrossEntropy:
    def test_uniform_logits_loss(self):
        loss, _ = CrossEntropyLoss()(np.zeros((4, 10)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10.0))

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = CrossEntropyLoss()(logits, np.array([1, 2]))
        assert loss < 1e-8

    def test_gradient_matches_numerical(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 2])
        loss_fn = CrossEntropyLoss()

        def objective():
            value, _ = loss_fn(logits, labels)
            return value

        _, grad = loss_fn(logits, labels)
        expected = numerical_gradient(objective, logits)
        np.testing.assert_allclose(grad, expected, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(4, 6))
        _, grad = CrossEntropyLoss()(logits, np.array([1, 2, 3, 4]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(rng.normal(size=(3, 4)), np.zeros(2, dtype=int))

    def test_logits_must_be_2d(self, rng):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(rng.normal(size=(3,)), np.zeros(3, dtype=int))


class TestAccuracy:
    """Top-1 accuracy, as the one evaluation loop counts it."""

    @staticmethod
    def accuracy(logits, labels):
        dataset = Dataset(np.zeros((len(labels), 1)), np.asarray(labels), num_classes=2)
        return evaluate_forward(lambda features: logits, dataset, np.float64)[1]

    def test_perfect(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert self.accuracy(logits, np.array([1, 0])) == 1.0

    def test_half(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert self.accuracy(logits, np.array([1, 1])) == 0.5
