"""Gradient and behaviour tests for every layer in repro.nn.layers (MaxPool2d
and Flatten through their per-worker passes in tests/reference/per_worker.py)."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from tests.reference.per_worker import per_worker


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer.forward(rng.normal(size=(4, 5))).shape == (4, 3)

    def test_forward_values(self):
        layer = Linear(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.5, 6.5]])

    def test_gradients(self, rng, grad_check):
        grad_check(Linear(4, 3, rng=rng), rng.normal(size=(5, 4)))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 3, rng=rng).forward(rng.normal(size=(2, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng=rng).backward(np.zeros((1, 2)))


class TestConv2d:
    def test_forward_shape_same_padding(self, rng):
        layer = Conv2d(3, 8, 5, padding=2, rng=rng)
        assert layer.forward(rng.normal(size=(2, 3, 12, 12))).shape == (2, 8, 12, 12)

    def test_forward_shape_stride(self, rng):
        layer = Conv2d(1, 4, 3, stride=2, padding=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 1, 8, 8))).shape == (2, 4, 4, 4)

    def test_gradients(self, rng, grad_check):
        grad_check(Conv2d(2, 3, 3, padding=1, rng=rng), rng.normal(size=(2, 2, 5, 5)))

    def test_gradients_strided_no_bias(self, rng, grad_check):
        grad_check(
            Conv2d(2, 2, 3, stride=2, padding=1, bias=False, rng=rng),
            rng.normal(size=(2, 2, 6, 6)),
        )

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, rng=rng).forward(rng.normal(size=(1, 2, 8, 8)))

    def test_identity_kernel(self):
        layer = Conv2d(1, 1, 1, bias=False, rng=0)
        layer.weight.data = np.ones((1, 1, 1, 1))
        inputs = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        np.testing.assert_array_equal(layer.forward(inputs), inputs)


class TestMaxPool2d:
    def test_forward_values(self):
        layer = per_worker(MaxPool2d(2))
        inputs = np.array(
            [[[[1.0, 2.0, 5.0, 0.0], [3.0, 4.0, 1.0, 1.0],
               [0.0, 0.0, 2.0, 2.0], [1.0, 0.0, 0.0, 9.0]]]]
        )
        out = layer.forward(inputs)
        np.testing.assert_array_equal(out, [[[[4.0, 5.0], [1.0, 9.0]]]])

    def test_backward_routes_to_argmax(self):
        layer = per_worker(MaxPool2d(2))
        inputs = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(inputs)
        grad = layer.backward(np.array([[[[7.0]]]]))
        np.testing.assert_array_equal(grad, [[[[0.0, 0.0], [0.0, 7.0]]]])

    def test_gradients(self, rng, grad_check):
        # Distinct values ensure a unique argmax, so finite differences
        # are valid.
        inputs = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
        grad_check(per_worker(MaxPool2d(2)), inputs)

    def test_gradients_with_padding(self, rng, grad_check):
        inputs = rng.permutation(2 * 49).astype(np.float64).reshape(2, 1, 7, 7)
        grad_check(per_worker(MaxPool2d(3, stride=2, padding=1)), inputs)

    def test_padding_never_wins(self):
        # All-negative input with padding: max must come from real cells.
        layer = per_worker(MaxPool2d(3, stride=1, padding=1))
        inputs = -np.ones((1, 1, 3, 3))
        out = layer.forward(inputs)
        assert np.all(out == -1.0)


class TestGlobalAvgPool2d:
    def test_forward(self, rng):
        layer = GlobalAvgPool2d()
        inputs = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_allclose(
            layer.forward(inputs), inputs.mean(axis=(2, 3))
        )

    def test_gradients(self, rng, grad_check):
        grad_check(GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))


class TestFlatten:
    def test_round_trip(self, rng):
        layer = per_worker(Flatten())
        inputs = rng.normal(size=(2, 3, 4))
        out = layer.forward(inputs)
        assert out.shape == (2, 12)
        grad = layer.backward(out)
        np.testing.assert_array_equal(grad, inputs)


class TestBatchNorm2d:
    def test_training_normalizes(self, rng):
        layer = BatchNorm2d(3)
        inputs = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = layer.forward(inputs)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_converge(self, rng):
        layer = BatchNorm2d(2)
        for _ in range(50):
            layer.forward(rng.normal(loc=3.0, size=(16, 2, 3, 3)))
        np.testing.assert_allclose(layer.running_mean, 3.0, atol=0.3)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        for _ in range(20):
            layer.forward(rng.normal(size=(16, 2, 3, 3)))
        layer.eval()
        inputs = rng.normal(size=(4, 2, 3, 3))
        expected = (
            (inputs - layer.running_mean[None, :, None, None])
            / np.sqrt(layer.running_var + layer.eps)[None, :, None, None]
        )
        np.testing.assert_allclose(layer.forward(inputs), expected, atol=1e-10)

    def test_gradients_training(self, rng, grad_check):
        layer = BatchNorm2d(2)
        grad_check(layer, rng.normal(size=(4, 2, 3, 3)), atol=1e-5, rtol=1e-3)

    def test_shape_check(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(3).forward(rng.normal(size=(2, 2, 4, 4)))
