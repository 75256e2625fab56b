"""Tests for Module/Parameter/Sequential machinery and the flat-vector API."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn import MLP
from repro.nn.activations import ReLU
from repro.nn.module import Identity, Module, Parameter, Sequential
from tests.gradcheck import named_parameters


class TestParameter:
    def test_accumulate_grad(self):
        param = Parameter(np.zeros(3))
        param.accumulate_grad(np.ones(3))
        param.accumulate_grad(np.ones(3))
        np.testing.assert_array_equal(param.grad, 2 * np.ones(3))

    def test_zero_grad(self):
        param = Parameter(np.ones(2))
        param.accumulate_grad(np.ones(2))
        param.zero_grad()
        np.testing.assert_array_equal(param.grad, np.zeros(2))

    def test_data_is_float64(self):
        assert Parameter(np.ones(2, dtype=np.float32)).data.dtype == np.float64


class TestModuleRegistration:
    def test_duplicate_parameter_raises(self):
        module = Module()
        module.register_parameter("w", Parameter(np.zeros(1)))
        with pytest.raises(ValueError):
            module.register_parameter("w", Parameter(np.zeros(1)))

    def test_duplicate_module_raises(self):
        module = Module()
        module.register_module("child", Identity())
        with pytest.raises(ValueError):
            module.register_module("child", Identity())

    def test_named_parameters_prefixes(self):
        model = MLP(4, [3], 2, rng=0)
        names = [name for name, _ in named_parameters(model)]
        assert "layer0.weight" in names
        assert "layer2.bias" in names

    def test_num_parameters(self):
        model = MLP(4, [3], 2, rng=0)
        assert model.num_parameters() == (4 * 3 + 3) + (3 * 2 + 2)

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, rng=0), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestFlatParams:
    def test_round_trip(self):
        model = MLP(4, [3], 2, rng=0)
        flat = model.get_flat_params()
        assert flat.size == model.num_parameters()
        other = MLP(4, [3], 2, rng=1)
        other.set_flat_params(flat)
        np.testing.assert_array_equal(other.get_flat_params(), flat)

    def test_set_changes_forward(self, rng):
        model_a = MLP(4, [3], 2, rng=0)
        model_b = MLP(4, [3], 2, rng=1)
        inputs = rng.normal(size=(2, 4))
        model_b.set_flat_params(model_a.get_flat_params())
        np.testing.assert_allclose(
            model_a.forward(inputs), model_b.forward(inputs)
        )

    def test_wrong_size_raises(self):
        model = MLP(4, [3], 2, rng=0)
        with pytest.raises(ValueError):
            model.set_flat_params(np.zeros(model.num_parameters() + 1))

    def test_flat_grads(self, rng):
        model = MLP(4, [3], 2, rng=0)
        model.zero_grad()
        out = model.forward(rng.normal(size=(2, 4)))
        model.backward(np.ones_like(out))
        grads = model.get_flat_grads()
        assert grads.size == model.num_parameters()
        assert np.any(grads != 0)

    def test_get_flat_grads_defaults_to_zero(self):
        model = MLP(4, [3], 2, rng=0)
        np.testing.assert_array_equal(
            model.get_flat_grads(), np.zeros(model.num_parameters())
        )


class TestSequential:
    def test_len_and_getitem(self):
        model = Sequential(Linear(2, 2, rng=0), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_append(self):
        model = Sequential(Linear(2, 2, rng=0))
        model.append(ReLU())
        assert len(model) == 2
        assert len(model.parameters()) == 2  # weight + bias

    def test_backward_reverses(self, rng, grad_check):
        model = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        inputs = rng.normal(size=(3, 3))
        inputs[np.abs(inputs) < 1e-3] = 0.5
        grad_check(model, inputs)
