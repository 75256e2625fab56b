"""Discrete-event execution engine: a simulated wall clock for training.

The synchronous engine (:mod:`repro.sim.engine`) models time as a
barrier: per round, compute time is the slowest participant and
communication time the slowest concurrent transfer.  That cannot express
the regimes the paper's Fig. 6 motivates — stragglers overlapping
compute with communication, asynchronous gossip, staleness.  This module
provides the missing execution layer:

* :class:`EventEngine` — a :class:`~repro.sim.calendar.CalendarQueue`
  of timed events (ties pop in push order, so a run's event order — and
  therefore every RNG draw made inside handlers — is a pure function of
  config + seed), per-endpoint link clocks that serialize transfers
  sharing a link end, and a :class:`EventTrace` of per-worker
  compute/communication busy totals, unifying the
  :class:`~repro.sim.timing.ComputeModel`, the bandwidth matrix, fault
  plans (:mod:`repro.sim.faults`) and client arrival processes
  (:mod:`repro.sim.population`) into one simulated-wall-clock timeline;
* :func:`run_event_experiment` — run an asynchronous algorithm variant
  (:mod:`repro.algorithms.asynchronous`) for a simulated time budget,
  sampling loss/accuracy/consensus distance at simulated-time
  checkpoints.

Round-synchronous algorithms need none of this: their clock is two
barriers per round, kept by :func:`repro.sim.engine.run_experiment`,
which returns the same :class:`~repro.sim.engine.ExperimentResult` /
:class:`~repro.sim.engine.RoundRecord` types :meth:`EventEngine.run`
does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.algorithms.asynchronous import AsyncDPSGD
from repro.data.datasets import Dataset
from repro.network.metrics import MB, TrafficMeter
from repro.network.transport import SimulatedNetwork
from repro.resilience import (
    ExchangePolicy,
    RecoveryPolicy,
    ResilienceStats,
    make_recovery_policy,
)
from repro.sim.calendar import CalendarQueue
from repro.sim.engine import (
    ExperimentConfig,
    ExperimentResult,
    RoundRecord,
    evaluate_consensus,
    make_workers,
)
from repro.sim.faults import FaultPlan
from repro.sim.timing import ComputeModel, ConstantCompute
from repro.utils.dtypes import resolve_dtype
from repro.utils.rng import as_generator


class EventTrace:
    """Per-worker compute/communication busy totals of one run.

    Feeds the timeline reports in :mod:`repro.analysis.timeline`
    (compute / communication / idle breakdown per worker).  Communication
    may overlap computation (AD-PSGD's point), so idle time is derived as
    ``max(horizon - compute - comm, 0)`` rather than interval arithmetic.

    Nothing is kept per interval: :meth:`add` folds each one into its
    worker's running sums, so storage grows with the workers that were
    ever busy — not with events, and not with enrolment.
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        #: End of the run on the simulated clock, set by whoever drives
        #: the run once it is known (:meth:`EventEngine.run` up front,
        #: the round loop before its last round).  Intervals added from
        #: then on are also summed clipped at it — a worker mid-compute
        #: when the clock ran out.
        self.horizon: Optional[float] = None
        #: ``totals[kind, worker] = [whole, clipped]`` seconds, each a
        #: running sum in :meth:`add` order.
        self.totals: Dict[Tuple[str, int], List[float]] = {}
        #: Optional :class:`repro.obs.TraceRecorder` that every interval
        #: is forwarded to as a simulated-time lane (set by the engine
        #: when a trace-mode recorder is installed).  This makes the
        #: event trace the simulated-time backend of the telemetry
        #: layer: one Chrome trace carries wall-time thread lanes and
        #: simulated-time worker lanes side by side.
        self.sink = None

    def add(self, worker: int, kind: str, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start} > {end}")
        if end > start:  # zero-length intervals carry no information
            if self.sink is not None:
                self.sink.add_sim_span(worker, kind, start, end)
            lane = self.totals.get((kind, worker))
            if lane is None:
                lane = self.totals[kind, worker] = [0.0, 0.0]
            lane[0] += end - start
            horizon = self.horizon
            if horizon is not None and end > horizon:
                end = horizon
            if end > start:
                lane[1] += end - start

    def busy_seconds(
        self, kind: str, horizon: Optional[float] = None
    ) -> np.ndarray:
        """Total seconds per worker spent in intervals of ``kind``:
        whole intervals without ``horizon``, clipped at the run's end
        with it (the only horizon the running sums can answer for)."""
        if horizon is not None and horizon != self.horizon:
            raise ValueError(
                f"this trace was clipped at its run's horizon "
                f"{self.horizon}, not {horizon}"
            )
        column = 0 if horizon is None else 1
        totals = np.zeros(self.num_workers, dtype=np.float64)
        for (lane_kind, worker), lane in self.totals.items():
            if lane_kind == kind and 0 <= worker < self.num_workers:
                totals[worker] = lane[column]
        return totals


class EventEngine:
    """Deterministic discrete-event executor over one simulated network.

    Holds the queue, the wall clock, per-endpoint link clocks (the
    synchronous timer has none) and the shared scenario models: compute
    times, the fault plan and the client population.  Asynchronous
    algorithms (:mod:`repro.algorithms.asynchronous`) bind to the engine
    and drive it through :meth:`schedule` and :meth:`start_tracked`, the
    one way to start a transfer that has a completion event.  Whether a
    fault plan is active is the engine's business: without one,
    :meth:`start_tracked` is plain transfers plus a scheduled completion.

    ``contention`` and ``scheduler`` choose nothing: the engine always
    serializes transfers on shared link ends and always runs a
    :class:`~repro.sim.calendar.CalendarQueue`.  The keywords stay, each
    accepting only that one value, because the frozen e2e benchmark
    (``benchmarks/e2e/workloads.py``) spells them.
    """

    #: Safety valve: an algorithm whose events never advance time (no
    #: compute model and no bandwidth) would otherwise spin forever
    #: inside one simulated instant.
    MAX_EVENTS = 2_000_000

    def __init__(
        self,
        network: SimulatedNetwork,
        compute_model: Optional[ComputeModel] = None,
        contention: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        exchange_policy: Optional[ExchangePolicy] = None,
        recovery: Optional[RecoveryPolicy] = None,
        scheduler: str = "calendar",
        population=None,
    ) -> None:
        self.network = network
        self.num_workers = network.num_workers
        self.compute_model = compute_model
        if contention is not True:
            raise ValueError(
                f"contention must be True (links always contend), got {contention!r}"
            )
        if scheduler != "calendar":
            raise ValueError(
                f"scheduler must be 'calendar' (the only one), got {scheduler!r}"
            )
        self.queue = CalendarQueue()
        #: Client up/down arrival process (repro.sim.population) — the
        #: algorithms gate cycle starts on it; None means always-on.
        self.population = population
        if population is not None and population.num_clients != self.num_workers:
            raise ValueError(
                f"population models {population.num_clients} clients but the "
                f"network has {self.num_workers} workers"
            )
        self.now = 0.0
        #: Time each link end (``SimulatedNetwork.link_endpoints`` key)
        #: is free again.
        self._link_free: Dict[Tuple, float] = {}
        self.trace = EventTrace(self.num_workers)
        self.trace.sink = obs.recorder().trace
        self.events_processed = 0
        # --- fault state -------------------------------------------------
        # The contract: with no plan (or an empty one) the engine performs
        # *exactly* the operations of the fault-free engine — same events,
        # same RNG draws, same metering — so no-fault runs stay
        # bit-identical to pre-fault-subsystem outputs.
        self.fault_plan = fault_plan
        self.faults_active = fault_plan is not None and not fault_plan.is_empty
        if fault_plan is not None and fault_plan.num_workers != self.num_workers:
            raise ValueError(
                f"fault plan is for {fault_plan.num_workers} workers but the "
                f"network has {self.num_workers}"
            )
        self.worker_up = np.ones(self.num_workers, dtype=bool)
        #: Bumped at each crash; events scheduled on behalf of a worker
        #: capture its incarnation and drop themselves when it changed —
        #: stale callbacks of a dead incarnation never fire.
        self.incarnation = np.zeros(self.num_workers, dtype=np.int64)
        self._down_links: set = set()
        if self.faults_active:
            self.exchange_policy = exchange_policy or ExchangePolicy()
            self.recovery = recovery or make_recovery_policy("checkpoint")
            self.resilience: Optional[ResilienceStats] = ResilienceStats(
                self.num_workers
            )
        else:
            self.exchange_policy = exchange_policy
            self.recovery = recovery
            self.resilience = None
        #: In-flight tracked transfers by id: (node_a, node_b, completion
        #: queue entry, link-reservation rollback info, abort callback).
        self._inflight: Dict[int, Tuple] = {}
        self._next_transfer_id = 0
        self._algorithm = None

    # ------------------------------------------------------------------
    # time helpers
    # ------------------------------------------------------------------
    def compute_seconds(self, cycle_index: int, rank: int, steps: int = 1) -> float:
        """Seconds worker ``rank`` needs for ``steps`` local steps of its
        ``cycle_index``-th cycle (0 without a compute model)."""
        if self.compute_model is None:
            return 0.0
        return float(self.compute_model.step_time(cycle_index, rank, steps))

    def transfer_seconds(
        self, sender: int, receiver: int, num_bytes: int, index: int
    ) -> float:
        """Unloaded duration of one directed transfer (0 when the link is
        not time-modelled); a transfer over a link that is not positive
        raises, naming its ends and ``index`` (the meter's slot)."""
        if num_bytes == 0:
            return 0.0
        link = self.network.link_bandwidth(sender, receiver)
        if link is None:
            return 0.0
        if link <= 0:
            raise ValueError(
                f"exchange {index}: worker {sender} -> worker {receiver} "
                f"has no link (bandwidth {link} MB/s)"
            )
        return (num_bytes / MB) / link

    def schedule(self, time: float, action: Callable) -> None:
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past ({time} < now={self.now})"
            )
        self.queue.push(time, action)

    def schedule_many(self, events: Sequence[Tuple[float, Callable]]) -> None:
        """Batched :meth:`schedule` — the per-round sampling storm of a
        sampled-participation run inserts hundreds of events at once."""
        now = self.now
        for time, _ in events:
            if time < now:
                raise ValueError(
                    f"cannot schedule into the past ({time} < now={now})"
                )
        self.queue.push_many(events)

    def start_transfer(
        self,
        start: float,
        sender: int,
        receiver: int,
        num_bytes: int,
        index: int = 0,
    ) -> Tuple[float, float]:
        """Account one directed transfer; returns its ``(begin, end)``.

        Greedy in-order link reservation: the transfer waits for the
        sender's transmit end and the receiver's receive end to free up
        (links are full duplex), then occupies both for its duration.
        Bytes are metered at the call (``index`` is the meter's round
        slot — async callers pass their exchange counter).
        """
        duration = self.transfer_seconds(sender, receiver, num_bytes, index)
        endpoints = SimulatedNetwork.link_endpoints(sender, receiver)
        link_free = self._link_free
        begin = start
        for endpoint in endpoints:
            begin = max(begin, link_free.get(endpoint, 0.0))
        end = begin + duration
        for endpoint in endpoints:
            link_free[endpoint] = end
        self.network.meter.record(index, sender, receiver, num_bytes)
        for node in (sender, receiver):
            if node != TrafficMeter.SERVER:
                self.trace.add(node, "comm", begin, end)
        return begin, end

    # ------------------------------------------------------------------
    # fault queries
    # ------------------------------------------------------------------
    def node_up(self, node: int) -> bool:
        """Liveness of a node (the parameter server never crashes)."""
        if node == TrafficMeter.SERVER:
            return True
        return bool(self.worker_up[node])

    def node_incarnation(self, node: int) -> int:
        return 0 if node == TrafficMeter.SERVER else int(self.incarnation[node])

    def exchange_viable(self, a: int, b: int) -> bool:
        """Both ends live and the link between them not down."""
        if not (self.node_up(a) and self.node_up(b)):
            return False
        if TrafficMeter.SERVER in (a, b):
            return True
        return (min(a, b), max(a, b)) not in self._down_links

    # ------------------------------------------------------------------
    # tracked transfers (crash-abortable)
    # ------------------------------------------------------------------
    def start_tracked(
        self,
        now: float,
        legs: Sequence[Tuple[int, int]],
        num_bytes: int,
        index: int,
        on_success: Callable,
        on_abort: Optional[Callable] = None,
        counted: bool = True,
    ) -> None:
        """Start directed transfers with one crash-abortable completion.

        ``legs`` is one or two ``(sender, receiver)`` pairs, each started
        at ``now`` through :meth:`start_transfer` in the order given;
        ``on_success`` fires when the last one lands.  Without an active
        fault plan that is all.  With one, the completion is registered
        in flight: a crash of either end of the first leg, or that link
        going down, cancels it, rolls back the link reservations nothing
        has stacked on since, and fires ``on_abort`` at that time.  A
        ``counted`` transfer that would outlive ``policy.timeout`` is not
        started: it counts as a timeout and ``on_abort`` fires at the
        deadline.  ``counted=False`` keeps a transfer out of the goodput
        accounting and the deadline (downloads are plumbing, not
        exchange attempts).
        """
        active = self.faults_active
        if active:
            before = {
                key: self._link_free.get(key)
                for sender, receiver in legs
                for key in SimulatedNetwork.link_endpoints(sender, receiver)
            }
        done = now
        for sender, receiver in legs:
            _, end = self.start_transfer(now, sender, receiver, num_bytes, index)
            if end > done:
                done = end
        if not active:
            self.schedule(done, on_success)
            return
        policy = self.exchange_policy
        if counted and policy is not None and done - now > policy.timeout:
            # Contention pushed the exchange past its deadline: it gives
            # up when the deadline expires.
            self.resilience.timeout_exchanges += 1
            if on_abort is not None:
                self.schedule(now + policy.timeout, on_abort)
            return
        tid = self._next_transfer_id
        self._next_transfer_id += 1

        def complete(t: float) -> None:
            self._inflight.pop(tid, None)
            if counted:
                self.resilience.completed_exchanges += 1
            on_success(t)

        handle = self.queue.push(done, complete)
        after = {key: self._link_free.get(key) for key in before}
        a, b = legs[0]
        self._inflight[tid] = (a, b, handle, before, after, on_abort, counted)

    def _abort_inflight(self, tid: int, now: float) -> None:
        a, b, handle, before, after, on_abort, counted = self._inflight.pop(tid)
        self.queue.cancel(handle)
        # Free the link ends this transfer reserved — but only where the
        # link clock still reads this transfer's reservation; a later
        # reservation stacked on top cannot be unwound.
        for key, original in before.items():
            if self._link_free.get(key) == after.get(key):
                if original is None:
                    self._link_free.pop(key, None)
                else:
                    self._link_free[key] = original
        if counted:
            self.resilience.aborted_exchanges += 1
        if on_abort is not None:
            on_abort(now)

    def _abort_matching(self, now: float, involves: Callable[[int, int], bool]) -> None:
        for tid in [
            tid
            for tid, (a, b, *_rest) in self._inflight.items()
            if involves(a, b)
        ]:
            self._abort_inflight(tid, now)

    # ------------------------------------------------------------------
    # fault handlers
    # ------------------------------------------------------------------
    def _on_crash(self, worker: int, now: float) -> None:
        if not self.worker_up[worker]:
            return
        self.worker_up[worker] = False
        self.incarnation[worker] += 1
        self.resilience.record_crash(worker, now)
        self._abort_matching(now, lambda a, b: worker in (a, b))
        if self._algorithm is not None:
            on_crashed = getattr(self._algorithm, "on_worker_crashed", None)
            if on_crashed is not None:
                on_crashed(worker, now)

    def _on_recover(self, worker: int, now: float) -> None:
        if self.worker_up[worker]:
            return
        self.worker_up[worker] = True
        self.resilience.record_recovery(worker, now)
        self.recovery.recover(self, self._algorithm, worker, now)

    def _on_link_down(self, a: int, b: int, now: float) -> None:
        self._down_links.add((min(a, b), max(a, b)))
        self._abort_matching(now, lambda x, y: {x, y} == {a, b})

    def _on_link_up(self, a: int, b: int, now: float) -> None:
        self._down_links.discard((min(a, b), max(a, b)))

    def _schedule_faults(self, duration: float) -> None:
        """Queue the plan's fault events plus, under checkpoint recovery,
        the periodic snapshot captures.  Only called with faults active,
        so fault-free runs process exactly the same event sequence as
        before the fault subsystem existed."""
        for event in self.fault_plan.events:
            if event.kind == "crash":
                action = (
                    lambda t, w=event.worker: self._on_crash(w, t)
                )
            elif event.kind == "recover":
                action = (
                    lambda t, w=event.worker: self._on_recover(w, t)
                )
            elif event.kind == "link_down":
                action = (
                    lambda t, link=event.link: self._on_link_down(*link, t)
                )
            else:  # link_up
                action = (
                    lambda t, link=event.link: self._on_link_up(*link, t)
                )
            # Events past the horizon stay queued but never pop — the run
            # loop stops at the first event beyond ``duration``.
            self.queue.push(event.time, action)
        store = getattr(self.recovery, "store", None)
        if store is not None:
            interval = store.interval
            tick = 1
            while tick * interval <= duration:
                self.queue.push(
                    tick * interval,
                    lambda t: store.capture(self._algorithm, self.worker_up, t),
                )
                tick += 1

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(
        self,
        algorithm,
        validation: Dataset,
        duration: float,
        checkpoint_every: float,
    ) -> ExperimentResult:
        """Drive ``algorithm`` (an async variant already ``setup()``)
        until the simulated clock reaches ``duration``, snapshotting
        metrics every ``checkpoint_every`` simulated seconds."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        algorithm.bind(self)
        self._algorithm = algorithm
        self.trace.horizon = float(duration)
        result = ExperimentResult(algorithm=algorithm.name, trace=self.trace)
        if self.faults_active:
            self._schedule_faults(float(duration))

        def snapshot(at: float) -> None:
            # Algorithms without TrainingWorkers (the million-client
            # sampled driver) evaluate their own consensus model; the
            # worker-backed variants go through the shared probe worker.
            evaluator = getattr(algorithm, "evaluate_consensus_model", None)
            with obs.phase("eval"):
                if evaluator is not None:
                    val_loss, val_accuracy = evaluator(validation)
                else:
                    val_loss, val_accuracy = evaluate_consensus(
                        algorithm, validation
                    )
            staleness = getattr(algorithm, "staleness_log", [])
            result.history.append(
                RoundRecord(
                    round_index=len(result.history),
                    time_s=at,
                    train_loss=algorithm.mean_train_loss,
                    val_loss=val_loss,
                    val_accuracy=val_accuracy,
                    consensus_distance=algorithm.consensus_distance(),
                    worker_traffic_mb=self.network.meter.mean_worker_traffic_mb(),
                    server_traffic_mb=self.network.server_traffic_mb(),
                    # No barrier on this engine: time_s is the whole axis.
                    comm_time_s=0.0,
                    events_processed=self.events_processed,
                    local_steps=algorithm.total_local_steps,
                    mean_staleness=(
                        float(np.mean(staleness)) if staleness else 0.0
                    ),
                )
            )
            if obs.enabled():
                # Per-checkpoint snapshot stream: the async engine has
                # no rounds, so checkpoints index the delta stream.
                obs.mirror_network(self.network)
                obs.mirror_resilience(self.resilience)
                obs.mirror_arena(getattr(algorithm, "arena", None))
                obs.end_round(len(result.history) - 1)

        algorithm.start()
        snapshot(0.0)
        # Checkpoint times are k * checkpoint_every (multiplication, not
        # accumulation) so the final checkpoint lands exactly on a round
        # multiple of the interval instead of drifting past it.
        checkpoint_index = 1
        next_checkpoint = checkpoint_every
        while self.queue:
            time = self.queue.peek_time()
            if time > duration:
                break
            # Snapshots happen between events: state at a checkpoint is
            # the state after every event strictly before it.
            while next_checkpoint <= time:
                snapshot(next_checkpoint)
                checkpoint_index += 1
                next_checkpoint = checkpoint_index * checkpoint_every
            time, action = self.queue.pop()
            self.now = time
            self.events_processed += 1
            if self.events_processed > self.MAX_EVENTS:
                raise RuntimeError(
                    "event budget exhausted — the schedule is not advancing "
                    "simulated time (no compute model and no bandwidth?)"
                )
            action(time)
        self.now = float(duration)
        while next_checkpoint <= duration:
            snapshot(next_checkpoint)
            checkpoint_index += 1
            next_checkpoint = checkpoint_index * checkpoint_every
        if not result.history or result.history[-1].time_s < duration:
            snapshot(float(duration))
        result.staleness = list(getattr(algorithm, "staleness_log", []))
        result.total_local_steps = algorithm.total_local_steps
        result.events_processed = self.events_processed
        if self.resilience is not None:
            self.resilience.close(float(duration))
            result.resilience = self.resilience
        if obs.enabled():
            obs.mirror_network(self.network)
            obs.mirror_resilience(self.resilience)
            obs.mirror_arena(getattr(algorithm, "arena", None))
            obs.gauge("run.events", float(self.events_processed))
            obs.record_worker_timeline(self.trace, float(duration))
        return result


# ----------------------------------------------------------------------
# harness entry points
# ----------------------------------------------------------------------
def run_event_experiment(
    algorithm,
    partitions: Sequence[Dataset],
    validation: Dataset,
    model_factory: Callable,
    config: ExperimentConfig,
    network: Optional[SimulatedNetwork] = None,
    compute_model: Optional[ComputeModel] = None,
    duration: float = 30.0,
    checkpoint_every: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    exchange_policy: Optional[ExchangePolicy] = None,
    recovery: Optional[RecoveryPolicy] = None,
    population=None,
) -> ExperimentResult:
    """Run an asynchronous algorithm variant on the event engine.

    The mirror of :func:`repro.sim.run_experiment` for the event-driven
    engine: builds workers (arena-backed, batched kernels and all), binds
    the algorithm, and runs for ``duration`` simulated seconds with
    checkpoints every ``checkpoint_every`` (default: 10 per run).
    Without a ``compute_model`` a :class:`ConstantCompute` of 0.1 s/step
    is assumed — an event simulation needs *some* notion of compute time
    for its clock to advance.

    ``fault_plan`` injects timed crash/recovery and link events
    (:mod:`repro.sim.faults`); ``exchange_policy`` and ``recovery``
    configure the deadline/retry and restart behaviour
    (:mod:`repro.resilience`).  A ``None`` or empty plan leaves the run
    bit-identical to a fault-free one.

    ``population`` is a client up/down arrival process
    (:mod:`repro.sim.population`); async algorithms defer cycle starts
    to each worker's next up-time.
    """
    if config.local_steps > 1 and isinstance(algorithm, AsyncDPSGD):
        raise ValueError(
            f"AD-PSGD takes one gradient per cycle, so local_steps must "
            f"be 1, got {config.local_steps}"
        )
    if network is None:
        network = SimulatedNetwork(num_workers=len(partitions))
    validation = validation.astype(resolve_dtype(config.dtype))
    if config.local_steps > 1 and hasattr(algorithm, "local_steps"):
        algorithm.local_steps = config.local_steps
    if compute_model is None:
        compute_model = ConstantCompute(0.1)
    workers = make_workers(model_factory, partitions, config)
    algorithm.setup(workers, network, rng=as_generator(config.seed))
    engine = EventEngine(
        network,
        compute_model=compute_model,
        fault_plan=fault_plan,
        exchange_policy=exchange_policy,
        recovery=recovery,
        population=population,
    )
    if checkpoint_every is None:
        checkpoint_every = duration / 10.0
    result = engine.run(algorithm, validation, duration, checkpoint_every)
    result.config = config
    return result
