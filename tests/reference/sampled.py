"""``LogisticBlobsTask``'s local training as it was before it was
stacked: one client row at a time, one batch at a time, kept verbatim
(with the two helpers it called) as the oracle the stacked kernel is
checked against bit for bit (``tests/test_participation.py::
TestStackedLocalTraining``).

:func:`run_local` takes the task where the method took ``self``; it reads
only the task's shapes and :meth:`~LogisticBlobsTask.client_batch`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
        features, labels = task.client_batch(client, cycle * steps + local)
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
