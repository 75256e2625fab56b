"""The seven compared algorithms (paper Section IV) plus variants.

========================  =============================================
Class                     Paper algorithm
========================  =============================================
:class:`PSGD`             PSGD with all-reduce
:class:`TopKPSGD`         TopK-PSGD (c = 1000, error feedback)
:class:`FedAvg`           FedAvg (C = 0.5)
:class:`SparseFedAvg`     S-FedAvg (C = 0.5, c = 100)
:class:`DPSGD`            D-PSGD (ring)
:class:`DCDPSGD`          DCD-PSGD (ring, c = 4)
:class:`SAPSPSGD`         SAPS-PSGD (c = 100) — the contribution
========================  =============================================
"""

from repro.algorithms.base import DistributedAlgorithm
from repro.algorithms.psgd import PSGD, TopKPSGD
from repro.algorithms.fedavg import FedAvg, SparseFedAvg
from repro.algorithms.decentralized import DCDPSGD, DPSGD
from repro.algorithms.saps_psgd import SAPSPSGD
from repro.algorithms.asynchronous import AsyncDPSGD, AsyncFedAvg, AsyncGossip
from repro.algorithms.sampled import (
    LogisticBlobsTask,
    SampledAsyncFedAvg,
    SampledSAPS,
)

__all__ = [
    "DistributedAlgorithm",
    "PSGD",
    "TopKPSGD",
    "FedAvg",
    "SparseFedAvg",
    "DPSGD",
    "DCDPSGD",
    "SAPSPSGD",
    "AsyncDPSGD",
    "AsyncFedAvg",
    "AsyncGossip",
    "LogisticBlobsTask",
    "SampledAsyncFedAvg",
    "SampledSAPS",
]
