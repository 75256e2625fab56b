"""Tests for the model zoo, including the paper's parameter counts."""

import numpy as np

from repro.nn import Cifar10CNN, MLP, MnistCNN, ResNet20, TinyCNN
from repro.nn.models import ResNetCIFAR
from repro.nn.losses import CrossEntropyLoss
from tests.reference.per_worker import flat_grads, per_worker


class TestResNet20:
    def test_paper_parameter_count(self):
        """Table II: ResNet-20 has exactly 269,722 parameters."""
        assert ResNet20(rng=0).num_parameters() == 269_722

    def test_depth(self):
        assert ResNet20(rng=0).depth == 20

    def test_forward_shape(self, rng):
        model = ResNet20(rng=0)
        out = model.forward(rng.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_backward_runs_and_produces_grads(self, rng):
        model = ResNet20(rng=0)
        model.zero_grad()
        out = model.forward(rng.normal(size=(2, 3, 32, 32)))
        loss, grad = CrossEntropyLoss()(out, np.array([1, 2]))
        model.backward(grad)
        grads = flat_grads(model)
        assert np.isfinite(grads).all()
        assert np.any(grads != 0)

    def test_resnet32_depth_and_size(self):
        model = ResNetCIFAR(blocks_per_stage=5, rng=0)
        assert model.depth == 32
        assert model.num_parameters() > ResNet20(rng=0).num_parameters()


class TestPaperCNNs:
    def test_mnist_cnn_shapes(self, rng):
        model = per_worker(MnistCNN(rng=0))
        out = model.forward(rng.normal(size=(2, 1, 28, 28)))
        assert out.shape == (2, 10)

    def test_mnist_cnn_parameter_count(self):
        # conv(1→32,5²)+conv(32→64,5²)+fc(3136→512)+fc(512→10)
        expected = (
            (1 * 32 * 25 + 32)
            + (32 * 64 * 25 + 64)
            + (3136 * 512 + 512)
            + (512 * 10 + 10)
        )
        assert MnistCNN(rng=0).num_parameters() == expected

    def test_cifar10_cnn_shapes(self, rng):
        model = per_worker(Cifar10CNN(rng=0))
        out = model.forward(rng.normal(size=(2, 3, 32, 32)))
        assert out.shape == (2, 10)

    def test_cifar_has_more_params_than_mnist(self):
        assert (
            Cifar10CNN(rng=0).num_parameters()
            > MnistCNN(rng=0).num_parameters()
        )


class TestSmallModels:
    def test_mlp_learns_xor(self):
        """A 2-layer MLP must fit XOR — a nonlinearity smoke test."""
        features = np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8
        )
        labels = np.array([0, 1, 1, 0] * 8)
        model = MLP(2, [16], 2, rng=3)
        loss_fn = CrossEntropyLoss()
        from repro.nn.optim import SGD

        optimizer = SGD(model.parameters(), lr=0.5)
        for _ in range(300):
            model.zero_grad()
            logits = model.forward(features)
            loss, grad = loss_fn(logits, labels)
            model.backward(grad)
            optimizer.step()
        predictions = np.argmax(model.forward(features), axis=1)
        assert np.array_equal(predictions, labels)

    def test_tiny_cnn_shapes(self, rng):
        model = per_worker(TinyCNN(in_channels=2, image_size=8, num_classes=4, rng=0))
        assert model.forward(rng.normal(size=(3, 2, 8, 8))).shape == (3, 4)

    def test_tiny_cnn_gradcheck(self, rng, grad_check):
        model = per_worker(TinyCNN(in_channels=1, image_size=6, num_classes=3, width=2, rng=0))
        inputs = rng.normal(size=(2, 1, 6, 6))
        grad_check(model, inputs, atol=1e-5, rtol=1e-3)
