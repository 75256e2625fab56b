"""``LogisticBlobsTask``'s local training as it was before it was
stacked: one client row at a time, one batch at a time, each batch from
a fresh ``default_rng`` on its ``derive_seed`` key.  Kept verbatim (with
the helpers it called) as the oracle the stacked, batch-seeded kernel is
checked against bit for bit (``tests/test_participation.py::
TestStackedLocalTraining``).

:func:`run_local` and :func:`client_batch` take the task where the
methods took ``self``; they read only the task's shapes, seed, centers
and noise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import derive_seed


def client_batch(task, client: int, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Client ``client``'s ``step``-th batch (deterministic, lazy)."""
    rng = np.random.default_rng(
        derive_seed(task.seed, "client", client, step)
    )
    labels = rng.integers(task.num_classes, size=task.batch_size)
    features = task.centers[labels] + task.noise * rng.normal(
        size=(task.batch_size, task.num_features)
    )
    return features, labels


def _unpack(task, vector: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    split = task.num_classes * task.num_features
    weights = vector[:split].reshape(task.num_classes, task.num_features)
    bias = vector[split:]
    return weights, bias


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def run_local(
    task, row: np.ndarray, client: int, cycle: int, steps: int, lr: float
) -> float:
    """``steps`` SGD steps in place on ``row``; returns mean loss."""
    weights, bias = _unpack(task, row)
    batch_rows = np.arange(task.batch_size)
    losses = []
    for local in range(steps):
        features, labels = client_batch(task, client, cycle * steps + local)
        probs = _softmax(features @ weights.T + bias)
        losses.append(
            -float(np.mean(np.log(probs[batch_rows, labels] + 1e-12)))
        )
        grad_logits = probs
        grad_logits[batch_rows, labels] -= 1.0
        grad_logits /= task.batch_size
        weights -= lr * (grad_logits.T @ features)
        bias -= lr * grad_logits.sum(axis=0)
    return float(np.mean(losses))
