"""Loss functions returning ``(loss_value, grad_wrt_logits)``.

Losses are mean-reduced over the batch, so gradients already include the
``1/batch`` factor and can be fed straight into ``model.backward``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels."""

    def __call__(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match batch "
                f"{logits.shape[0]}"
            )
        batch = logits.shape[0]
        # Fused log-softmax + softmax: the shift and the exponentials
        # are computed once and serve both.
        shifted = logits - np.max(logits, axis=1, keepdims=True)
        exp = np.exp(shifted)
        sum_exp = np.sum(exp, axis=1, keepdims=True)
        rows = np.arange(batch)
        loss = -(shifted[rows, labels] - np.log(sum_exp[rows, 0])).mean()
        grad = exp / sum_exp
        grad[rows, labels] -= 1.0
        return float(loss), grad / batch


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))
