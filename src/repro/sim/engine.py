"""Experiment engine: run an algorithm for T rounds and log the paper's axes.

:func:`run_experiment` wires partitions + model factory + network +
algorithm together, executes synchronous rounds, and records
``(round, train_loss, val_accuracy, traffic_MB, comm_time_s,
consensus_distance)`` at every evaluation point — the raw series behind
Figs. 3, 4 and 6 and Tables III and IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro import obs
from repro.data.datasets import Dataset
from repro.network.metrics import CommunicationTimer, TrafficMeter
from repro.network.transport import SimulatedNetwork
from repro.nn.module import Module
from repro.sim.trainer import TrainingWorker, bind_arena
from repro.utils.dtypes import resolve_dtype
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # avoid a runtime cycle with repro.algorithms
    from repro.algorithms.base import DistributedAlgorithm


@dataclass
class ExperimentConfig:
    """Hyperparameters of one run (defaults sized for fast simulation).

    Every field is read by the loops themselves (:func:`run_experiment`,
    :func:`repro.sim.run_event_experiment` and :func:`make_workers`).
    The engine, a fault plan, sampled participation and a population
    model are not fields: the caller picks the loop and hands each of
    the others, built, to the loop or the algorithm that reads it.

    ``lr_milestones``/``lr_gamma`` implement the step decay conventional
    for the paper's longer CIFAR runs: at each milestone *round*, every
    worker's learning rate is multiplied by ``lr_gamma``.
    """

    rounds: int = 100
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    eval_every: int = 10
    seed: int = 0
    lr_milestones: Optional[List[int]] = None
    lr_gamma: float = 0.1
    #: Numeric dtype of the training substrate: ``"float64"`` (default,
    #: bit-identical to the historical trajectories) or ``"float32"``
    #: (halves replica memory/traffic, matches the fp32 tensors the
    #: measured systems exchange).  ``make_workers`` casts shards, models
    #: and the arena accordingly.
    dtype: str = "float64"
    #: Local SGD steps per communication round.  The paper uses 1; larger
    #: values amortize the (batched) local compute across fewer
    #: exchanges.  When set above 1, ``run_experiment`` applies it to any
    #: algorithm exposing a ``local_steps`` attribute (SAPS-PSGD,
    #: FedAvg/S-FedAvg) — the workload-level knob wins over constructor
    #: defaults.  At the default of 1 constructed algorithms keep their
    #: own values (e.g. FedAvg's McMahan-style E=5).
    local_steps: int = 1

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        check_positive(self.lr, "lr")
        if self.eval_every <= 0:
            raise ValueError(f"eval_every must be positive, got {self.eval_every}")
        check_positive(self.lr_gamma, "lr_gamma")
        if self.local_steps < 1:
            raise ValueError(
                f"local_steps must be >= 1, got {self.local_steps}"
            )
        if self.lr_milestones is not None:
            self.lr_milestones = sorted(int(m) for m in self.lr_milestones)
        self.dtype = resolve_dtype(self.dtype).name


@dataclass
class RoundRecord:
    """One evaluation point along a run, on either engine.

    ``time_s`` is the simulated clock.  Synchronous rounds are barriers,
    so there it is ``comm_time_s + compute_time_s`` (compute is zero
    without a :class:`repro.sim.timing.ComputeModel`) and
    ``round_index`` counts rounds (-1 = before the first).  Asynchronous
    runs have no barrier: the two cumulative barrier fields stay zero,
    ``time_s`` is the checkpoint time and ``round_index`` the checkpoint
    number.  ``local_steps`` is cumulative over all workers.
    """

    round_index: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    worker_traffic_mb: float
    server_traffic_mb: float
    comm_time_s: float
    consensus_distance: float
    compute_time_s: float = 0.0
    time_s: float = 0.0
    local_steps: int = 0
    events_processed: int = 0
    mean_staleness: float = 0.0


@dataclass
class ExperimentResult:
    """Full trajectory of one (algorithm, workload) run, on either engine.

    ``config`` is ``None`` only for a bare :meth:`EventEngine.run
    <repro.sim.events.EventEngine.run>`, which never sees one.
    """

    algorithm: str
    config: Optional[ExperimentConfig] = None
    history: List[RoundRecord] = field(default_factory=list)
    #: Per-round (compute, comm) barrier times of a synchronous run.
    round_compute_seconds: List[float] = field(default_factory=list)
    round_comm_seconds: List[float] = field(default_factory=list)
    #: Per-worker :class:`~repro.sim.events.EventTrace`: always on the
    #: event engine, on the synchronous one only with telemetry enabled.
    trace: Optional[object] = None
    #: Run totals.  On the event engine they can exceed the last
    #: record's: events landing exactly on the horizon run after it.
    total_local_steps: int = 0
    events_processed: int = 0
    #: Staleness of every applied update (asynchronous variants).
    staleness: List[int] = field(default_factory=list)
    #: :class:`~repro.resilience.ResilienceStats` of a run with an
    #: active fault plan, else None.
    resilience: Optional[object] = None

    @property
    def horizon(self) -> float:
        """Simulated seconds the run covered (both engines close a run
        with a record)."""
        return self.history[-1].time_s if self.history else 0.0

    @property
    def final_accuracy(self) -> float:
        return self.history[-1].val_accuracy if self.history else float("nan")

    @property
    def best_accuracy(self) -> float:
        if not self.history:
            return float("nan")
        return max(record.val_accuracy for record in self.history)

    def series(self, x_attr: str):
        """Validation accuracy against ``x_attr`` for plotting, e.g.
        ``series("worker_traffic_mb")`` is Fig. 4's curve for this
        algorithm."""
        xs = [getattr(record, x_attr) for record in self.history]
        ys = [record.val_accuracy for record in self.history]
        return xs, ys

    def cost_to_reach(
        self, target_accuracy: float, cost_attr: str = "worker_traffic_mb"
    ) -> Optional[float]:
        """Table IV's query: the first recorded cost at which validation
        accuracy reached ``target_accuracy`` (None if never reached).
        ``cost_attr="time_s"`` is Fig. 6's simulated-time axis."""
        for record in self.history:
            if record.val_accuracy >= target_accuracy:
                return getattr(record, cost_attr)
        return None


def make_workers(
    model_factory: Callable[[], Module],
    partitions: Sequence[Dataset],
    config: ExperimentConfig,
) -> List[TrainingWorker]:
    """Instantiate one :class:`TrainingWorker` per shard.

    Each worker gets an independent data-sampling RNG derived from the
    experiment seed; model initializations are later overwritten by the
    algorithm's setup (all workers start from worker 0's weights).

    All replicas are adopted into one :class:`repro.nn.arena.ParameterArena`
    (rows in rank order) — the storage every algorithm's round runs on.

    ``config.dtype`` flows through here: shards are cast once so batches
    arrive in the training dtype, and the arena is allocated in it
    (adoption re-homogenizes model parameters, so even a factory that
    ignores ``dtype`` lands on the configured precision).  The float64
    default makes every cast a no-op.
    """
    dtype = resolve_dtype(config.dtype)
    streams = spawn_generators(config.seed, len(partitions))
    workers = []
    for rank, (shard, stream) in enumerate(zip(partitions, streams)):
        workers.append(
            TrainingWorker(
                rank=rank,
                model=model_factory(),
                shard=shard.astype(dtype),
                batch_size=config.batch_size,
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
                rng=stream,
            )
        )
    bind_arena(workers, dtype=dtype)
    return workers


def evaluate_consensus(
    algorithm: "DistributedAlgorithm", dataset: Dataset
) -> tuple:
    """Evaluate the consensus (average) model without disturbing training
    (:meth:`~repro.sim.cluster.ClusterTrainer.evaluate_vector`)."""
    return algorithm.cluster_trainer.evaluate_vector(
        algorithm.consensus_model(), dataset
    )


def _trace_round(
    trace, round_index, participants, steps, compute_model, start, barrier,
    transfers,
) -> None:
    """Per-worker layout of one synchronous round (see
    :func:`run_experiment`): compute from ``start``, transfers from the
    compute ``barrier``."""
    if compute_model is not None:
        # step_time is deterministic per (round, rank): asking again
        # for per-worker spans perturbs nothing.
        for rank in participants:
            dt = float(compute_model.step_time(round_index, rank, steps))
            trace.add(rank, "compute", start, start + dt)
    durations, senders, receivers = transfers
    for duration, sender, receiver in zip(
        durations.tolist(), senders.tolist(), receivers.tolist()
    ):
        if sender == CommunicationTimer.COLLECTIVE:
            # Collectives (ring all-reduce, sparse allgather, the
            # aggregated server batch) declare no link ends but occupy
            # every participant.
            nodes = participants
        else:
            nodes = [n for n in (sender, receiver) if n != TrafficMeter.SERVER]
        for node in nodes:
            trace.add(node, "comm", barrier, barrier + duration)


def run_experiment(
    algorithm: "DistributedAlgorithm",
    partitions: Sequence[Dataset],
    validation: Dataset,
    model_factory: Callable[[], Module],
    config: ExperimentConfig,
    network: Optional[SimulatedNetwork] = None,
    round_callback: Optional[Callable[[int, float], None]] = None,
    snapshot_callback: Optional[Callable[[RoundRecord], None]] = None,
    compute_model=None,
) -> ExperimentResult:
    """Run ``algorithm`` for ``config.rounds`` synchronous rounds.

    ``round_callback(round_index, train_loss)`` fires after every round;
    ``snapshot_callback(record)`` fires at every evaluation point — hooks
    for live progress reporting, early stopping shims, or custom logging
    without subclassing the engine.

    Every round advances one simulated clock by two barriers: the
    slowest participant's local steps under ``compute_model`` (a
    :class:`repro.sim.timing.ComputeModel`; zero without one), then the
    round's communication as closed by the network's
    :class:`~repro.network.metrics.CommunicationTimer`.  Algorithms
    expose their participants via ``last_participants`` (None =
    everyone) and their per-round local step count via ``local_steps``
    (default 1).

    With telemetry on (:func:`repro.obs.enabled`) the round is also laid
    out per worker into ``result.trace``: one compute interval per
    participant, then each transfer the timer recorded on both its link
    ends (a collective with no link ends lands on every participant) —
    the event engine's convention, so ``worker.<rank>.*`` lanes read the
    same on either engine.  Only the round's last timer phase is laid
    out; all seven paper algorithms close exactly one.
    """
    if network is None:
        network = SimulatedNetwork(num_workers=len(partitions))
    # Evaluation must run in the training dtype too (a float64 validation
    # set would upcast every eval forward pass); no-op at float64.
    validation = validation.astype(resolve_dtype(config.dtype))
    if config.local_steps > 1 and hasattr(algorithm, "local_steps"):
        # The workload-level knob is authoritative when set: the recorded
        # config and the executed schedule must agree.
        algorithm.local_steps = config.local_steps
    workers = make_workers(model_factory, partitions, config)
    algorithm.setup(workers, network, rng=as_generator(config.seed))

    result = ExperimentResult(algorithm=algorithm.name, config=config)
    timer = network.timer
    compute_seconds = 0.0
    if obs.enabled():
        from repro.sim.events import EventTrace

        result.trace = EventTrace(len(workers))
        result.trace.sink = obs.recorder().trace

    def snapshot(round_index: int, train_loss: float) -> None:
        with obs.phase("eval"):
            val_loss, val_accuracy = evaluate_consensus(algorithm, validation)
        comm_seconds = network.total_time_seconds()
        record = RoundRecord(
            round_index=round_index,
            train_loss=train_loss,
            val_loss=val_loss,
            val_accuracy=val_accuracy,
            worker_traffic_mb=network.meter.mean_worker_traffic_mb(),
            server_traffic_mb=network.server_traffic_mb(),
            comm_time_s=comm_seconds,
            consensus_distance=algorithm.consensus_distance(),
            compute_time_s=compute_seconds,
            time_s=comm_seconds + compute_seconds,
            local_steps=result.total_local_steps,
        )
        result.history.append(record)
        if snapshot_callback is not None:
            snapshot_callback(record)

    snapshot(round_index=-1, train_loss=float("nan"))

    running_loss = float("nan")
    milestones = set(config.lr_milestones or [])
    for round_index in range(config.rounds):
        if round_index in milestones:
            for worker in workers:
                worker.optimizer.lr *= config.lr_gamma
        round_start = network.total_time_seconds() + compute_seconds
        phases_before = len(timer.round_seconds)
        with obs.phase("round"):
            running_loss = algorithm.run_round(round_index)
        participants = getattr(algorithm, "last_participants", None)
        if participants is None:
            participants = range(len(workers))
        steps = getattr(algorithm, "local_steps", 1)
        result.total_local_steps += steps * len(participants)
        round_compute = 0.0
        if compute_model is not None:
            round_compute = compute_model.round_time(
                round_index, participants, steps
            )
            compute_seconds += round_compute
        round_comm = sum(timer.round_seconds[phases_before:])
        result.round_compute_seconds.append(round_compute)
        result.round_comm_seconds.append(round_comm)
        is_last = round_index == config.rounds - 1
        if result.trace is not None:
            if is_last:
                # The clock as it stands is the run's horizon; earlier
                # rounds close before it, so only this one can be clipped.
                result.trace.horizon = (
                    network.total_time_seconds() + compute_seconds
                )
            _trace_round(
                result.trace, round_index, participants, steps, compute_model,
                round_start, round_start + round_compute,
                timer.last_round_transfers,
            )
            if compute_model is not None:
                obs.observe("round.compute_s", round_compute)
            obs.observe("round.comm_s", round_comm)
            obs.mirror_network(network)
            obs.mirror_arena(getattr(algorithm, "arena", None))
            obs.end_round(round_index)
        if round_callback is not None:
            round_callback(round_index, running_loss)
        if (round_index + 1) % config.eval_every == 0 or is_last:
            snapshot(round_index, running_loss)
    if result.trace is not None:
        obs.gauge("run.rounds", float(config.rounds))
        obs.record_worker_timeline(result.trace, result.horizon)
    return result
