"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro import obs
from repro.data import Dataset, make_blobs, partition_iid
from tests.gradcheck import named_parameters


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blob_splits():
    """(partitions, validation) for a fast 4-worker workload with a shared
    class-center distribution."""
    full = make_blobs(num_samples=360, num_classes=4, num_features=8, rng=7)
    train, validation = full.split(fraction=280 / 360, rng=7)
    partitions = partition_iid(train, 4, rng=7)
    return partitions, validation


@contextmanager
def scoped(recorder):
    """Install telemetry ``recorder`` for the duration of a ``with`` block."""
    previous = obs.install(recorder)
    try:
        yield recorder
    finally:
        obs.install(previous)


def numerical_gradient(func, array, epsilon=1e-6):
    """Central-difference gradient of scalar ``func`` w.r.t. ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = func()
        flat[index] = original - epsilon
        lower = func()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return grad


@pytest.fixture
def grad_check():
    """Layer gradient checker: compares backward() against central
    differences for inputs and all parameters."""

    def check(layer, inputs, atol=1e-6, rtol=1e-4, seed=0):
        inputs = np.asarray(inputs, dtype=np.float64)
        generator = np.random.default_rng(seed)
        output = layer.forward(inputs)
        upstream = generator.normal(size=output.shape)

        def objective():
            return float(np.sum(layer.forward(inputs) * upstream))

        # Input gradient.
        layer.zero_grad()
        layer.forward(inputs)
        grad_input = layer.backward(upstream)
        expected_input = numerical_gradient(objective, inputs)
        np.testing.assert_allclose(
            grad_input, expected_input, atol=atol, rtol=rtol,
            err_msg="input gradient mismatch",
        )

        # Parameter gradients.
        for name, param in named_parameters(layer):
            layer.zero_grad()
            layer.forward(inputs)
            layer.backward(upstream)
            analytic = param.grad.copy()
            expected = numerical_gradient(objective, param.data)
            np.testing.assert_allclose(
                analytic, expected, atol=atol, rtol=rtol,
                err_msg=f"parameter gradient mismatch for {name}",
            )

    return check


def settled_growth(call, calls=100_000):
    """Bytes ``call()`` still allocates once it has settled: tracemalloc
    growth over the last 90 % of ``calls`` identical invocations.  Zero
    for anything that keeps totals — give or take the loop's own few
    dozen bytes of bookkeeping — and megabytes for one object per call."""
    tracemalloc.start()
    try:
        for index in range(calls):
            if index == calls // 10:
                settled = tracemalloc.get_traced_memory()[0]
            call(index)
        return tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()


def cut_links(seed, num_workers=8, cuts=6):
    """Bandwidth uniform on (1, 5] MB/s with ``cuts`` random links set to
    0 MB/s (no link) on both sides."""
    from repro.network.bandwidth import random_uniform_bandwidth

    bandwidth = random_uniform_bandwidth(num_workers, low=1.0, rng=seed)
    rows, cols = np.triu_indices(num_workers, 1)
    cut = np.random.default_rng(seed).choice(rows.size, cuts, replace=False)
    bandwidth[rows[cut], cols[cut]] = bandwidth[cols[cut], rows[cut]] = 0.0
    return bandwidth
