"""Optimizers.

Mini-batch SGD with optional momentum and weight decay is all the paper's
experiments use (Table II).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.utils.validation import check_non_negative, check_positive


class Optimizer:
    """Base optimizer over a list of :class:`Parameter`."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        self.lr = check_positive(lr, "lr")

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional Polyak momentum and decoupled weight decay.

    Dtype-neutral: all state (velocities, the vectorized flat scratch
    buffer) is allocated in the parameters' own dtype, and scalar
    hyperparameters are Python floats, so float32 models update in
    float32 with no hidden upcast temporaries.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        check_non_negative(weight_decay, "weight_decay")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocities: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._flat_params: Optional[np.ndarray] = None
        self._flat_grads: Optional[np.ndarray] = None
        self._flat_scratch: Optional[np.ndarray] = None

    def attach_flat_storage(
        self, flat_params: np.ndarray, flat_grads: np.ndarray
    ) -> None:
        """Enable whole-model vectorized updates for arena-backed models.

        ``flat_params``/``flat_grads`` must be the contiguous flat views
        whose segments are exactly this optimizer's parameters, in order
        (i.e. the model's arena row).  The vectorized step is
        bit-identical to the per-parameter loop; momentum state stays
        per-parameter, so momentum runs keep the loop.  The step's
        row-sized scratch buffer is allocated by the first vectorized
        step: a worker trained by a batched cluster never steps itself.
        """
        total = sum(param.size for param in self.parameters)
        if flat_params.size != total or flat_grads.size != total:
            raise ValueError(
                f"flat storage holds {flat_params.size} elements but "
                f"parameters total {total}"
            )
        if not all(param.arena_backed for param in self.parameters):
            raise ValueError("all parameters must be arena-backed")
        self._flat_params = flat_params
        self._flat_grads = flat_grads
        self._flat_scratch = None

    def step(self) -> None:
        if (
            self._flat_params is not None
            and not self.momentum
            and all(param.grad is not None for param in self.parameters)
        ):
            # Vectorized row update: same elementwise operations as the
            # loop below, one numpy dispatch instead of one per layer and
            # no per-step temporaries (the scratch row is made once, here).
            if self._flat_scratch is None:
                self._flat_scratch = np.empty_like(self._flat_params)
            grad = self._flat_grads
            if self.weight_decay:
                grad = np.add(
                    grad, self.weight_decay * self._flat_params,
                    out=self._flat_scratch,
                )
            np.multiply(grad, self.lr, out=self._flat_scratch)
            self._flat_params -= self._flat_scratch
            return
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocities[index]
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocities[index] = velocity
                if self.nesterov:
                    grad = grad + self.momentum * velocity
                else:
                    grad = velocity
            if param.arena_backed:
                # Arena views must be updated in place (rebinding would
                # detach the parameter from its worker's row); `x -= d`
                # is bit-identical to `x = x - d`.
                param.data -= self.lr * grad
            else:
                param.data = param.data - self.lr * grad
