"""The event engine's local steps one row at a time, as AsyncGossip and
AsyncFedAvg ran them before their stacked passes: each compute-done
event steps its own worker's row on the trainer and nothing else.
The oracle ``tests/test_async_stacked.py`` runs the shipped families
against.  AsyncDPSGD still steps one row at a time in ``src/``, so it
needs no oracle here.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import AsyncFedAvg, AsyncGossip


class OneRowLocal:
    """Mixin: the one-row ``_run_local``; nothing is ever stacked."""

    def _run_local(self, rank: int) -> float:
        k = self.local_steps
        losses = self.cluster_trainer.batched_steps(
            k, np.array([rank], dtype=np.intp)
        )
        # np.mean's sum and count, without its wrapper.
        loss = float(losses.sum()) / losses.size
        self.total_local_steps += k
        self._loss_sum += loss * k
        self._loss_events += k
        return loss


class OneRowAsyncGossip(OneRowLocal, AsyncGossip):
    pass


class OneRowAsyncFedAvg(OneRowLocal, AsyncFedAvg):
    pass
