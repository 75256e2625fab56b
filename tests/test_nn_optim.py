"""Tests for SGD and LR schedulers."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD


def make_param(value=1.0, grad=0.5):
    param = Parameter(np.array([value]))
    param.grad = np.array([grad])
    return param


class TestSGD:
    def test_vanilla_step(self):
        param = make_param(1.0, 0.5)
        SGD([param], lr=0.1).step()
        assert param.data[0] == pytest.approx(0.95)

    def test_skips_none_grad(self):
        param = Parameter(np.array([1.0]))
        SGD([param], lr=0.1).step()
        assert param.data[0] == 1.0

    def test_weight_decay(self):
        param = make_param(1.0, 0.0)
        SGD([param], lr=0.1, weight_decay=0.5).step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_momentum_accumulates(self):
        param = make_param(0.0, 1.0)
        optimizer = SGD([param], lr=1.0, momentum=0.9)
        optimizer.step()  # v = 1 -> x = -1
        param.grad = np.array([1.0])
        optimizer.step()  # v = 1.9 -> x = -2.9
        assert param.data[0] == pytest.approx(-2.9)

    def test_nesterov_differs_from_heavy_ball(self):
        heavy = make_param(0.0, 1.0)
        nesterov = make_param(0.0, 1.0)
        SGD([heavy], lr=1.0, momentum=0.9).step()
        SGD([nesterov], lr=1.0, momentum=0.9, nesterov=True).step()
        assert nesterov.data[0] != heavy.data[0]

    def test_quadratic_convergence(self):
        """SGD minimizes f(x) = x² to near zero."""
        param = Parameter(np.array([5.0]))
        optimizer = SGD([param], lr=0.1)
        for _ in range(100):
            param.grad = 2.0 * param.data
            optimizer.step()
        assert abs(param.data[0]) < 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": 0.1, "momentum": 1.0},
            {"lr": 0.1, "weight_decay": -1.0},
            {"lr": 0.1, "nesterov": True},
        ],
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ValueError):
            SGD([make_param()], **kwargs)
