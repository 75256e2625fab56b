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
    bandwidth_threshold: Optional[float] = None
    base_seed: int = 0
    #: Local SGD steps per round for the decentralized algorithms'
    #: local phase (SAPS-PSGD); FedAvg/S-FedAvg keep their own
    #: ``fedavg_local_steps``.  The paper uses 1.
    saps_local_steps: int = 1


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
            bandwidth_threshold=settings.bandwidth_threshold,
            connectivity_gap=settings.connectivity_gap,
            base_seed=settings.base_seed,
            local_steps=settings.saps_local_steps,
        ),
    }


def run_comparison(
    partitions: Sequence[Dataset],
    validation: Dataset,
    model_factory: Callable[[], Module],
    config: ExperimentConfig,
    bandwidth: Optional[np.ndarray] = None,
    settings: Optional[SuiteSettings] = None,
    algorithms: Optional[Sequence[str]] = None,
    dtype: Optional[str] = None,
    local_steps: Optional[int] = None,
) -> Dict[str, ExperimentResult]:
    """Run the full (or a named subset of the) suite on one workload.

    Every algorithm gets a *fresh* network meter so trajectories are
    independently accounted, and the same config seed so workers sample
    comparable batch sequences.

    ``dtype`` / ``local_steps`` override the corresponding
    :class:`ExperimentConfig` fields for the whole comparison (the
    passed config and settings are not mutated).  A ``local_steps``
    above 1 is the workload-level schedule: the engine applies it to
    every algorithm with a local phase (SAPS-PSGD and FedAvg/S-FedAvg
    alike), and :attr:`SuiteSettings.saps_local_steps` is updated so the
    constructed suite agrees with the recorded config.
    """
    overrides = {}
    if dtype is not None:
        overrides["dtype"] = dtype
    if local_steps is not None:
        overrides["local_steps"] = local_steps
    if overrides:
        config = replace(config, **overrides)
    if local_steps is not None:
        settings = replace(
            settings or SuiteSettings(), saps_local_steps=local_steps
        )
    suite = paper_algorithm_suite(settings)
    if algorithms is not None:
        unknown = set(algorithms) - set(suite)
        if unknown:
            raise KeyError(f"unknown algorithms: {sorted(unknown)}")
        suite = {name: suite[name] for name in algorithms}

    results: Dict[str, ExperimentResult] = {}
    for name, factory in suite.items():
        network = SimulatedNetwork(
            num_workers=len(partitions),
            bandwidth=bandwidth,
            server_bandwidth=(
                float(np.max(bandwidth)) if bandwidth is not None else None
            ),
        )
        results[name] = run_experiment(
            algorithm=factory(),
            partitions=partitions,
            validation=validation,
            model_factory=model_factory,
            config=config,
            network=network,
        )
    return results
