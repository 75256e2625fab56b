"""Optimizers.

Mini-batch SGD with optional momentum and weight decay is all the paper's
experiments use (Table II).
"""

from __future__ import annotations

from typing import Sequence

from repro.nn.module import Parameter
from repro.utils.validation import check_non_negative, check_positive


class SGD:
    """SGD's hyperparameters over a list of :class:`Parameter`: Polyak
    momentum, Nesterov and weight decay.

    The update itself runs over whole arena rows in
    :class:`repro.sim.cluster.ClusterTrainer`, with momentum state held
    as one velocity row per worker; only ``lr`` may differ between the
    workers it steps together.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        self.parameters = list(parameters)
        self.lr = check_positive(lr, "lr")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        check_non_negative(weight_decay, "weight_decay")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
