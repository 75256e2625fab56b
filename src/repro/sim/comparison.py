"""The 7-algorithm comparison harness behind Figs. 3/4/6 and Tables III/IV.

:func:`paper_algorithm_suite` instantiates every compared algorithm with
the paper's hyperparameters (Section IV-A): SAPS-PSGD c=100, TopK-PSGD
c=1000, DCD-PSGD c=4, FedAvg/S-FedAvg participation 0.5.
:func:`run_comparison` runs them all on a shared workload and returns the
per-algorithm trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.algorithms import (
    DCDPSGD,
    DPSGD,
    FedAvg,
    PSGD,
    SAPSPSGD,
    SparseFedAvg,
    TopKPSGD,
    DistributedAlgorithm,
)
from repro.data.datasets import Dataset
from repro.network.transport import SimulatedNetwork
from repro.nn.module import Module
from repro.sim.engine import ExperimentConfig, ExperimentResult, run_experiment


@dataclass
class SuiteSettings:
    """Paper Section IV-A hyperparameters, overridable per study."""

    saps_compression: float = 100.0
    topk_compression: float = 1000.0
    dcd_compression: float = 4.0
    fedavg_participation: float = 0.5
    fedavg_local_steps: int = 5
    sfedavg_compression: float = 100.0
    connectivity_gap: int = 20
    base_seed: int = 0


def paper_algorithm_suite(
    settings: Optional[SuiteSettings] = None,
) -> Dict[str, Callable[[], DistributedAlgorithm]]:
    """Factories for the seven compared algorithms, keyed by paper name."""
    settings = settings or SuiteSettings()
    return {
        "PSGD": lambda: PSGD(),
        "TopK-PSGD": lambda: TopKPSGD(settings.topk_compression),
        "FedAvg": lambda: FedAvg(
            settings.fedavg_participation, settings.fedavg_local_steps
        ),
        "S-FedAvg": lambda: SparseFedAvg(
            settings.fedavg_participation,
            settings.fedavg_local_steps,
            settings.sfedavg_compression,
        ),
        "D-PSGD": lambda: DPSGD(),
        "DCD-PSGD": lambda: DCDPSGD(settings.dcd_compression),
        "SAPS-PSGD": lambda: SAPSPSGD(
            compression_ratio=settings.saps_compression,
            connectivity_gap=settings.connectivity_gap,
            base_seed=settings.base_seed,
        ),
    }


def run_comparison(
    partitions: Sequence[Dataset],
    validation: Dataset,
    model_factory: Callable[[], Module],
    config: ExperimentConfig,
    bandwidth: Optional[np.ndarray] = None,
    settings: Optional[SuiteSettings] = None,
    local_steps: Optional[int] = None,
) -> Dict[str, ExperimentResult]:
    """Run the full suite on one workload.

    Every algorithm gets a *fresh* network meter so trajectories are
    independently accounted, and the same config seed so workers sample
    comparable batch sequences.

    ``local_steps`` overrides :attr:`ExperimentConfig.local_steps` for
    the whole comparison (the passed config is not mutated).  A
    ``local_steps`` above 1 is the workload-level schedule: the engine
    applies it to every algorithm with a local phase (SAPS-PSGD and
    FedAvg/S-FedAvg alike).
    """
    if local_steps is not None:
        config = replace(config, local_steps=local_steps)
    suite = paper_algorithm_suite(settings)

    results: Dict[str, ExperimentResult] = {}
    for name, factory in suite.items():
        network = SimulatedNetwork(len(partitions), bandwidth=bandwidth)
        results[name] = run_experiment(
            algorithm=factory(),
            partitions=partitions,
            validation=validation,
            model_factory=model_factory,
            config=config,
            network=network,
        )
    return results
