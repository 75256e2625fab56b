"""Simulation engine: training workers, round engine, comparison harness."""

from repro.sim.trainer import TrainingWorker
from repro.sim.cluster import ClusterTrainer
from repro.sim.engine import (
    ExperimentConfig,
    ExperimentResult,
    RoundRecord,
    evaluate_consensus,
    make_workers,
    run_experiment,
)
from repro.sim.comparison import (
    SuiteSettings,
    paper_algorithm_suite,
    run_comparison,
)
from repro.sim.timing import (
    ComputeModel,
    ConstantCompute,
    HeterogeneousCompute,
)
from repro.sim.calendar import CalendarQueue
from repro.sim.events import (
    EventEngine,
    EventQueue,
    EventTrace,
    run_event_experiment,
)
from repro.sim.population import (
    AlwaysUp,
    ClientPopulation,
    RenewalPopulation,
    parse_population,
)
from repro.sim.participation import ParticipationContext
from repro.sim.faults import FaultEvent, FaultPlan

__all__ = [
    "TrainingWorker",
    "ClusterTrainer",
    "ExperimentConfig",
    "ExperimentResult",
    "RoundRecord",
    "make_workers",
    "run_experiment",
    "evaluate_consensus",
    "SuiteSettings",
    "paper_algorithm_suite",
    "run_comparison",
    "ComputeModel",
    "ConstantCompute",
    "HeterogeneousCompute",
    "CalendarQueue",
    "EventEngine",
    "EventQueue",
    "EventTrace",
    "ClientPopulation",
    "AlwaysUp",
    "RenewalPopulation",
    "parse_population",
    "ParticipationContext",
    "run_event_experiment",
    "FaultPlan",
    "FaultEvent",
]
