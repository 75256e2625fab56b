"""Simulation engine: training workers, round engine, comparison harness."""

from repro.sim.cluster import ClusterTrainer
from repro.sim.engine import (
    ExperimentConfig,
    ExperimentResult,
    make_workers,
    run_experiment,
)
from repro.sim.comparison import (
    SuiteSettings,
    paper_algorithm_suite,
    run_comparison,
)
from repro.sim.timing import ConstantCompute, HeterogeneousCompute
from repro.sim.events import EventEngine, run_event_experiment
from repro.sim.population import RenewalPopulation, parse_population
from repro.sim.faults import FaultPlan

__all__ = [
    "ClusterTrainer",
    "ExperimentConfig",
    "ExperimentResult",
    "make_workers",
    "run_experiment",
    "SuiteSettings",
    "paper_algorithm_suite",
    "run_comparison",
    "ConstantCompute",
    "HeterogeneousCompute",
    "EventEngine",
    "RenewalPopulation",
    "parse_population",
    "run_event_experiment",
    "FaultPlan",
]
