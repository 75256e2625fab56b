"""Deeper NN substrate tests: odd shapes, eval-mode grads, integration."""

import numpy as np

from repro.nn.optim import SGD
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d
from repro.nn import Cifar10CNN, MnistCNN
from repro.nn.losses import CrossEntropyLoss
from repro.nn.activations import ReLU
from repro.nn.module import Sequential
from tests.gradcheck import check_gradients
from tests.reference.per_worker import flat_grads, per_worker


class TestOddShapes:
    def test_conv_rectangular_kernel_gradients(self, rng):
        layer = Conv2d(2, 3, (1, 3), padding=(0, 1), rng=0)
        report = check_gradients(layer, rng.normal(size=(2, 2, 4, 6)))
        assert report.passed, report.summary()

    def test_conv_rectangular_input(self, rng):
        layer = Conv2d(1, 2, 3, padding=1, rng=0)
        out = layer.forward(rng.normal(size=(2, 1, 5, 9)))
        assert out.shape == (2, 2, 5, 9)

    def test_conv_asymmetric_stride_gradients(self, rng):
        layer = Conv2d(1, 2, 3, stride=(1, 2), padding=1, rng=0)
        report = check_gradients(layer, rng.normal(size=(1, 1, 5, 8)))
        assert report.passed, report.summary()

    def test_maxpool_overlapping_windows(self, rng):
        # stride < kernel: overlapping receptive fields.
        inputs = rng.permutation(49).astype(np.float64).reshape(1, 1, 7, 7)
        report = check_gradients(per_worker(MaxPool2d(3, stride=2)), inputs)
        assert report.passed, report.summary()

    def test_batch_of_one(self, rng):
        layer = Conv2d(1, 2, 3, padding=1, rng=0)
        report = check_gradients(layer, rng.normal(size=(1, 1, 4, 4)))
        assert report.passed

    def test_single_feature_linear(self, rng):
        report = check_gradients(Linear(1, 1, rng=0), rng.normal(size=(3, 1)))
        assert report.passed


class TestBatchNormEval:
    def test_eval_mode_gradients(self, rng):
        """Eval-mode BN is an affine map with fixed statistics — its
        gradient must check out too (it takes a different code path)."""
        layer = BatchNorm2d(2)
        for _ in range(10):
            layer.forward(rng.normal(size=(8, 2, 3, 3)))
        layer.eval()
        report = check_gradients(layer, rng.normal(size=(4, 2, 3, 3)))
        assert report.passed, report.summary()

    def test_train_and_eval_converge_for_big_batches(self, rng):
        layer = BatchNorm2d(2, momentum=1.0)  # running = last batch
        inputs = rng.normal(size=(64, 2, 5, 5))
        train_out = layer.forward(inputs)
        layer.eval()
        eval_out = layer.forward(inputs)
        np.testing.assert_allclose(train_out, eval_out, atol=0.05)


class TestPaperModelsSmoke:
    def test_mnist_cnn_one_training_step_reduces_loss(self, rng):
        model = per_worker(MnistCNN(rng=0))
        loss_fn = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=0.05)
        images = rng.normal(size=(8, 1, 28, 28))
        labels = rng.integers(10, size=8)

        def loss_value():
            return loss_fn(model.forward(images), labels)[0]

        initial = loss_value()
        for _ in range(3):
            model.zero_grad()
            _, grad = loss_fn(model.forward(images), labels)
            model.backward(grad)
            optimizer.step()
        assert loss_value() < initial

    def test_cifar10_cnn_backward_produces_finite_grads(self, rng):
        model = per_worker(Cifar10CNN(rng=0))
        loss_fn = CrossEntropyLoss()
        model.zero_grad()
        logits = model.forward(rng.normal(size=(2, 3, 32, 32)))
        _, grad = loss_fn(logits, np.array([3, 7]))
        model.backward(grad)
        grads = flat_grads(model)
        assert np.isfinite(grads).all()
        assert np.abs(grads).max() > 0


def linear_regression_problem():
    """``y = X w + noise``: (features, targets, generating weights)."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=6)
    features = rng.normal(size=(200, 6))
    return features, features @ weights + 0.01 * rng.normal(size=200), weights


def mse_grad(predictions, targets):
    return 2.0 * (predictions - targets) / predictions.size


class TestOptimizerIntegration:
    def test_linear_regression_convergence(self):
        """SGD on MSE must recover the generating weights."""
        features, targets, weights = linear_regression_problem()
        model = Linear(6, 1, rng=0)
        optimizer = SGD(model.parameters(), lr=0.1)
        for _ in range(400):
            model.zero_grad()
            model.backward(mse_grad(model.forward(features), targets[:, None]))
            optimizer.step()
        np.testing.assert_allclose(
            model.weight.data.ravel(), weights, atol=0.05
        )

    def test_weight_decay_shrinks_solution(self):
        features, targets, _ = linear_regression_problem()

        def train(weight_decay):
            model = Linear(6, 1, rng=0)
            optimizer = SGD(model.parameters(), lr=0.1, weight_decay=weight_decay)
            for _ in range(300):
                model.zero_grad()
                model.backward(mse_grad(model.forward(features), targets[:, None]))
                optimizer.step()
            return float(np.linalg.norm(model.weight.data))

        assert train(1.0) < train(0.0)

    def test_momentum_accelerates_on_quadratic(self):
        def solve(momentum):
            from repro.nn.module import Parameter

            param = Parameter(np.array([10.0]))
            optimizer = SGD([param], lr=0.02, momentum=momentum)
            for _ in range(60):
                param.grad = 2.0 * param.data
                optimizer.step()
            return abs(float(param.data[0]))

        assert solve(0.9) < solve(0.0)


class TestCompositeGradients:
    def test_small_conv_stack(self, rng):
        model = per_worker(Sequential(
            Conv2d(1, 2, 3, padding=1, rng=0),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(2 * 3 * 3, 4, rng=0),
        ))
        inputs = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        report = check_gradients(model, inputs, atol=1e-5, rtol=1e-3)
        assert report.passed, report.summary()

    def test_conv_bn_relu_block(self, rng):
        model = Sequential(
            Conv2d(1, 2, 3, padding=1, bias=False, rng=0),
            BatchNorm2d(2),
            ReLU(),
        )
        inputs = rng.normal(size=(4, 1, 4, 4))
        report = check_gradients(model, inputs, atol=1e-4, rtol=5e-3)
        assert report.passed, report.summary()
