"""Asynchronous algorithm variants for the event engine.

Three asynchronous counterparts of the compared families, all driven by
:class:`repro.sim.events.EventEngine` (no synchronous round barrier) and
all reusing the arena / batched-kernel numeric substrate:

* :class:`AsyncGossip` — SAPS-style pairwise masked gossip where a pair
  exchanges **as soon as both endpoints are free**: a worker finishing
  its local steps pairs with a waiting peer (bandwidth-greedy or random)
  or waits for the next arrival.  No straggler ever gates the cluster.
* :class:`AsyncDPSGD` — AD-PSGD-style asynchronous decentralized SGD
  (Lian et al., 2018): gradient computation overlaps pairwise model
  averaging, and each applied gradient's **staleness** (averagings that
  touched the worker's model between gradient computation and
  application) is tracked.
* :class:`AsyncFedAvg` — FedAsync-style server (Xie et al., 2019):
  workers download/compute/upload on their own clocks and the server
  mixes each upload with a **staleness-attenuated** weight
  ``MIXING / (1 + staleness) ** STALENESS_POWER``.

The variants subclass :class:`DistributedAlgorithm` so ``setup`` gives
them the shared arena, the batched :class:`ClusterTrainer` and the
initial broadcast for free; instead of ``run_round`` they expose
``start()`` plus event handlers the engine fires.  Availability is read
off the engine (one scenario timeline for everything): a worker that its
population model has down sleeps until its next up-time, and under an
active fault plan every exchange is crash-abortable with deadline /
backoff retries.

In AsyncGossip and AsyncFedAvg nothing writes a computing worker's row,
loader stream or optimizer row before its compute-done event, so the
first such event steps every computing worker in one stacked pass and
each other one commits at its own (:meth:`AsyncAlgorithm._run_local`):
one pass per worker's floats, in a fraction of the calls.  AsyncDPSGD
averages into computing rows, so it steps one row at a time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.algorithms.base import DistributedAlgorithm
from repro.compression.base import BYTES_PER_VALUE, check_compression_ratio
from repro.compression.random_mask import generate_mask
from repro.core.gossip import average_pairs
from repro.network.metrics import TrafficMeter
from repro.utils.rng import derive_seed


class AsyncAlgorithm(DistributedAlgorithm):
    """Shared per-worker cycle machinery of the asynchronous variants.

    A worker's life is a loop of *cycles*; what a cycle does is
    subclass-specific (:meth:`_start_cycle`).  The base class handles
    binding to the engine, availability gating (a dead worker restarts
    through recovery, a down one sleeps until its next up-time),
    local-step execution through the trainer, and running train-loss
    accounting.
    """

    is_asynchronous = True

    def __init__(self, local_steps: int = 1) -> None:
        super().__init__()
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        self.local_steps = int(local_steps)
        self.engine = None
        #: Shared participation layer, built at :meth:`bind` from the
        #: engine's population model.
        self.participation_ctx = None
        self.total_local_steps = 0
        #: Per-application staleness samples (variant-specific meaning;
        #: empty for variants without a staleness notion).
        self.staleness_log: List[int] = []
        self._cycle_counts: Optional[np.ndarray] = None
        self._loss_sum = 0.0
        self._loss_events = 0
        #: Workers whose compute has begun and whose steps have not run.
        self._frozen: set = set()
        #: Steps run ahead, by rank: ``(losses, new row, new velocity
        #: row, steps_taken, last_loss, loader state before the draw)``,
        #: each row its own copy.
        self._pending: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # engine protocol
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        if engine.num_workers != self.num_workers:
            raise ValueError(
                f"engine has {engine.num_workers} workers, algorithm "
                f"has {self.num_workers}"
            )
        self.engine = engine
        # Imported here: repro.algorithms must not import the repro.sim
        # package at module load (sim.comparison imports the algorithms).
        from repro.sim.participation import ParticipationContext

        self.participation_ctx = ParticipationContext(
            self.num_workers,
            population=getattr(engine, "population", None),
        )

    def start(self) -> None:
        """Schedule every worker's first cycle at t = 0."""
        self._cycle_counts = np.zeros(self.num_workers, dtype=np.int64)
        #: The broadcast starting point — what a cold recovery restores.
        self.initial_model = self.workers[0].snapshot_params()
        for rank in range(self.num_workers):
            self._begin_cycle(rank, 0.0)

    # ------------------------------------------------------------------
    # fault protocol (engine callbacks; no-ops without an active plan)
    # ------------------------------------------------------------------
    def restart_worker(self, rank: int, now: float) -> None:
        """Recovery hook: the worker's state is restored, start it over."""
        self._begin_cycle(rank, now)

    def on_worker_crashed(self, rank: int, now: float) -> None:
        """Crash hook: the worker's compute never finishes, so a step run
        ahead for it is dropped and its loader rewound to before that
        draw.  Variants drop their own bookkeeping on top."""
        self._frozen.discard(rank)
        pending = self._pending.pop(rank, None)
        if pending is not None:
            self.workers[rank].loader._rng.bit_generator.state = pending[-1]

    def _schedule_worker(self, rank: int, time: float, action) -> None:
        """Schedule an event on behalf of ``rank``.

        Fault-free this is :meth:`EventEngine.schedule` verbatim.  With
        faults active the action captures the worker's incarnation and
        drops itself if the worker crashed (and possibly restarted) in
        the meantime — a dead incarnation's compute-done or wake-up
        events must never touch the restored state.
        """
        engine = self.engine
        if not engine.faults_active:
            engine.schedule(time, action)
            return
        inc = engine.node_incarnation(rank)

        def guarded(t: float) -> None:
            if engine.worker_up[rank] and engine.incarnation[rank] == inc:
                action(t)

        engine.schedule(time, guarded)

    def _drive_exchange(
        self,
        driver: int,
        partner: int,
        num_bytes: int,
        index: int,
        on_success,
        on_give_up,
        attempt: int = 0,
        now: Optional[float] = None,
        takeover: bool = True,
        bidirectional: bool = True,
        driver_inc: Optional[int] = None,
        partner_inc: Optional[int] = None,
    ) -> None:
        """Start an exchange (both directions) or, with
        ``bidirectional=False``, an upload from ``driver`` to ``partner``;
        ``on_success(t)`` fires when it lands.

        The one way an asynchronous family starts either.  Without an
        active fault plan it is one :meth:`EventEngine.start_tracked`
        call.  With one, each attempt either:

        * expires at ``policy.timeout`` when the partner is dead,
          restarted, or the link is down ("waiting on a dead peer");
        * starts a tracked transfer that a mid-flight crash aborts; or
        * completes, firing ``on_success(t)``.

        Every failure path funnels into the same retry logic: exponential
        backoff with seed-deterministic jitter, then a fresh attempt;
        after ``max_retries`` the driver abandons the exchange and
        ``on_give_up(t, survivors)`` fires with the parties still alive
        in the incarnation they started it in, driver first (the
        re-match path).  If the *driver* crashes mid-flight and
        ``takeover`` is set, the surviving partner inherits the retry
        loop — a crash always leaves the survivor in charge of its own
        deadline.
        """
        engine = self.engine
        if now is None:
            now = engine.now
        if bidirectional:
            legs = ((driver, partner), (partner, driver))
        else:
            legs = ((driver, partner),)
        if not engine.faults_active:
            engine.start_tracked(now, legs, num_bytes, index, on_success)
            return
        policy = engine.exchange_policy
        stats = engine.resilience
        if driver_inc is None:
            driver_inc = engine.node_incarnation(driver)
        if partner_inc is None:
            partner_inc = engine.node_incarnation(partner)

        def driver_ok() -> bool:
            return (
                engine.node_up(driver)
                and engine.node_incarnation(driver) == driver_inc
            )

        def partner_ok() -> bool:
            return (
                engine.node_up(partner)
                and engine.node_incarnation(partner) == partner_inc
            )

        def retry(t: float) -> None:
            self._drive_exchange(
                driver, partner, num_bytes, index, on_success, on_give_up,
                attempt + 1, t, takeover=takeover, bidirectional=bidirectional,
                driver_inc=driver_inc, partner_inc=partner_inc,
            )

        def fail(t: float) -> None:
            if not driver_ok():
                if takeover and partner_ok():
                    # The driver died mid-exchange: the survivor takes
                    # over the retry loop from its own side.
                    self._drive_exchange(
                        partner, driver, num_bytes, index, on_success,
                        on_give_up, attempt + 1, t, takeover=takeover,
                        bidirectional=bidirectional,
                        driver_inc=partner_inc, partner_inc=driver_inc,
                    )
                return
            if attempt >= policy.max_retries:
                stats.give_ups += 1
                on_give_up(t, (driver, partner) if partner_ok() else (driver,))
                return
            stats.retries += 1
            delay = policy.backoff_delay(driver, attempt, index)
            engine.schedule(t + delay, retry)

        stats.attempted_exchanges += 1
        if not (partner_ok() and engine.exchange_viable(driver, partner)):
            # Waiting on a dead, restarted or unreachable peer: the
            # attempt expires at its deadline, then backs off.
            stats.timeout_exchanges += 1
            engine.schedule(now + policy.timeout, fail)
            return
        engine.start_tracked(now, legs, num_bytes, index, on_success, fail)

    def run_round(self, round_index: int) -> float:
        raise NotImplementedError(
            "asynchronous variants run on the EventEngine, not in rounds"
        )

    @property
    def mean_train_loss(self) -> float:
        """Running mean of all local-step losses so far."""
        if self._loss_events == 0:
            return float("nan")
        return self._loss_sum / self._loss_events

    # ------------------------------------------------------------------
    # the worker cycle
    # ------------------------------------------------------------------
    def _begin_cycle(self, rank: int, start: float) -> None:
        engine = self.engine
        if engine.faults_active and not engine.worker_up[rank]:
            return  # a dead worker's cycle restarts through recovery
        ctx = self.participation_ctx
        if ctx is not None and ctx.population is not None:
            # Arrival-process availability: a down worker sleeps until
            # its own next up-*time* (one wake-up event).
            up_at = ctx.wake_at(rank, start)
            if up_at > start:
                self._schedule_worker(
                    rank, up_at, lambda t, r=rank: self._begin_cycle(r, t)
                )
                return
        cycle = int(self._cycle_counts[rank])
        self._cycle_counts[rank] += 1
        self._start_cycle(rank, cycle, start)

    def _start_cycle(self, rank: int, cycle: int, start: float) -> None:
        """Default cycle: compute ``local_steps`` then hand over to
        :meth:`_on_compute_done` (gossip-style variants)."""
        engine = self.engine
        duration = engine.compute_seconds(cycle, rank, self.local_steps)
        engine.trace.add(rank, "compute", start, start + duration)
        self._frozen.add(rank)
        self._schedule_worker(
            rank, start + duration, lambda t, r=rank: self._on_compute_done(r, t)
        )

    def _on_compute_done(self, rank: int, now: float) -> None:
        raise NotImplementedError

    def _run_local(self, rank: int) -> float:
        """Commit ``rank``'s ``local_steps`` steps at its compute-done
        event (stepped now by :meth:`_step_frozen`, or earlier in another
        worker's pass); returns their mean loss.  Losses enter the mean
        in completion order, and a non-finite one raises
        :class:`~repro.algorithms.base.DivergenceError` here, as one pass
        per worker would."""
        k = self.local_steps
        self._frozen.discard(rank)
        pending = self._pending.pop(rank, None)
        if pending is None:
            losses = self._step_frozen(rank, k)
        else:
            losses, row, velocity_row, steps_taken, last_loss, _ = pending
            self.arena.data[rank] = row
            if velocity_row is not None:
                self.cluster_trainer._velocity[rank] = velocity_row
            worker = self.workers[rank]
            worker.steps_taken, worker.last_loss = steps_taken, last_loss
        # np.mean's sum and count, without its wrapper.
        loss = float(losses.sum()) / losses.size
        if not math.isfinite(loss):
            self._check_finite(losses[None], [rank], "simulated time", self.engine.now)
        self.total_local_steps += k
        self._loss_sum += loss * k
        self._loss_events += k
        return loss

    def _step_frozen(self, rank: int, k: int) -> np.ndarray:
        """``k`` steps of ``rank`` and every other frozen worker in one
        pass; returns ``rank``'s ``(k,)`` losses.  The others' results go
        to :attr:`_pending` with their loader states from before the draw
        (for :meth:`on_worker_crashed`), and their old rows, velocity rows
        and counters are put back for evals, merges and checkpoints."""
        trainer, others = self.cluster_trainer, sorted(self._frozen)
        # A model without a batched plan keeps batch-norm statistics on
        # its own modules, outside the arena, which the put-back below
        # cannot restore: it steps one row at its own event.
        if trainer.net is None or not others:
            return trainer.batched_steps(k, np.array([rank], dtype=np.intp))[0]
        self._frozen.clear()
        rows = np.array(others, dtype=np.intp)
        data, velocity = self.arena.data, trainer._velocity
        # The old rows wait out the pass here, then go back.
        old_rows = data[rows]
        old_velocities = None if velocity is None else velocity[rows]
        workers = [self.workers[other] for other in others]
        counters = [(worker.steps_taken, worker.last_loss) for worker in workers]
        states = [w.loader._rng.bit_generator.state if self.engine.faults_active
                  else None for w in workers]
        # Ascending ranks: a contiguous run takes the trainer's view path.
        ranks = np.sort(np.append(rows, rank))
        losses = trainer.batched_steps(k, ranks=ranks)
        at = np.searchsorted(ranks, rows).tolist()
        stepped = trainer._velocity
        for i, (other, worker) in enumerate(zip(others, workers)):
            # Row copies: a view would keep the whole pass's block alive.
            self._pending[other] = (
                losses[at[i]], data[other].copy(),
                None if stepped is None else stepped[other].copy(),
                worker.steps_taken, worker.last_loss, states[i])
            worker.steps_taken, worker.last_loss = counters[i]
        data[rows] = old_rows
        if stepped is not None:
            # A velocity the pass allocated was zero before it.
            stepped[rows] = 0.0 if velocity is None else old_velocities
        return losses[int(np.searchsorted(ranks, rank))]


class AsyncGossip(AsyncAlgorithm):
    """Asynchronous SAPS-style pairwise gossip.

    A worker that finishes its local steps enters a waiting pool; the
    first compatible arrival pairs with it and the two exchange the
    seeded-random-masked model components (Eq. 7's average, the exact
    math of the synchronous SAPS exchange) over their link.  ``peer_choice``
    selects among multiple waiting peers: ``"bandwidth"`` picks the
    fastest link to the arriving worker (the adaptive flavour),
    ``"random"`` draws uniformly.  An exchange abandoned under a fault
    plan leaves both peers unmixed — they just start their next cycle.
    """

    name = "Async-SAPS"

    def __init__(
        self,
        compression_ratio: float = 100.0,
        peer_choice: str = "bandwidth",
        base_seed: int = 0,
    ) -> None:
        # ``local_steps`` is the run's: ``run_event_experiment`` writes
        # ``ExperimentConfig.local_steps`` onto it.
        super().__init__()
        self.compression_ratio = check_compression_ratio(compression_ratio)
        if peer_choice not in ("bandwidth", "random"):
            raise ValueError(f"unknown peer_choice {peer_choice!r}")
        self.peer_choice = peer_choice
        self.base_seed = int(base_seed)
        self.exchange_count = 0
        self.dropped_exchanges = 0
        self._waiting: List[int] = []

    def start(self) -> None:
        self._waiting = []
        super().start()

    def on_worker_crashed(self, rank: int, now: float) -> None:
        super().on_worker_crashed(rank, now)
        # A crashed worker must not linger in the matching pool — a
        # later arrival would pair with a corpse.
        if rank in self._waiting:
            self._waiting.remove(rank)

    def _pick_partner(self, rank: int) -> int:
        if len(self._waiting) == 1:
            return self._waiting[0]
        if self.peer_choice == "random":
            return self._waiting[
                int(self._rng.integers(len(self._waiting)))
            ]
        bandwidth = self.network.bandwidth
        if bandwidth is None:
            return self._waiting[0]  # FIFO: all links equal
        best = self._waiting[0]
        for peer in self._waiting[1:]:
            if bandwidth[rank, peer] > bandwidth[rank, best]:
                best = peer
        return best

    def _on_compute_done(self, rank: int, now: float) -> None:
        self._run_local(rank)
        # Waiting peers may have gone down since they entered the pool:
        # a matched partner must be up *now*, so downed peers are pruned
        # first and re-enter the cycle loop (where they sleep until
        # their own next up-time) — the arriving worker then re-matches
        # against the remaining up pool.  Without a population model the
        # pool is returned untouched (the legacy bit-identical path).
        up, down = self.participation_ctx.prune_down(self._waiting, now)
        if down:
            self._waiting = up
            for peer in down:
                self._begin_cycle(peer, now)
        if not self._waiting:
            self._waiting.append(rank)
            return
        partner = self._pick_partner(rank)
        self._waiting.remove(partner)
        obs.timed("comm", self._exchange, rank, partner, now)

    def _exchange(self, rank: int, partner: int, now: float) -> None:
        """The matched pair's mask draw and transfers (span ``comm``)."""
        index = self.exchange_count
        self.exchange_count += 1
        seed = derive_seed(self.base_seed, "mask", index)
        mask = generate_mask(self.model_size, self.compression_ratio, seed)
        indices = np.flatnonzero(mask)
        self._drive_exchange(
            rank, partner, int(indices.size) * BYTES_PER_VALUE, index,
            lambda t, a=rank, b=partner, idx=indices: self._merge(a, b, idx, t),
            self._give_up, now=now,
        )

    def _give_up(self, now: float, survivors) -> None:
        """An abandoned exchange: the survivors re-enter the cycle loop
        (the re-match path); dead parties restart through recovery."""
        self.dropped_exchanges += 1
        for node in survivors:
            self._begin_cycle(node, now)

    def _merge(self, a: int, b: int, indices: np.ndarray, now: float) -> None:
        obs.timed("mix", average_pairs, self.arena.data, a, b, indices)
        self._begin_cycle(a, now)
        self._begin_cycle(b, now)


class AsyncDPSGD(AsyncAlgorithm):
    """AD-PSGD-style asynchronous decentralized SGD with staleness.

    Each worker loops: compute one mini-batch gradient, pick a uniform
    random peer, atomically average the two models (the communication
    thread — it does **not** wait for the peer's compute), then apply the
    held gradient to its own averaged model.  The gradient was taken at
    parameters that other pairs may have averaged over in the meantime;
    the number of such foreign mixings is recorded in
    :attr:`staleness_log` per applied gradient.  A cycle is one gradient,
    so ``local_steps`` stays 1: the compute it bills is the step it takes.
    """

    name = "Async-D-PSGD"

    def __init__(self) -> None:
        super().__init__()
        self._mix_counts: Optional[np.ndarray] = None
        self.exchange_count = 0

    def start(self) -> None:
        self._mix_counts = np.zeros(self.num_workers, dtype=np.int64)
        super().start()

    def _on_compute_done(self, rank: int, now: float) -> None:
        # One row, never a stacked pass (nothing here reads _frozen):
        # _average_pair rewrites a computing peer's row.
        losses = self.cluster_trainer.compute_gradients(
            np.array([rank], dtype=np.intp)
        )
        self._check_finite(losses, [rank], "simulated time", now, "gradient")
        loss = float(losses[0])
        gradient = self.arena.grads[rank].copy()
        self.total_local_steps += 1
        self._loss_sum += loss
        self._loss_events += 1
        base_mixes = int(self._mix_counts[rank])
        # A uniform peer among the live workers that the population has
        # up.  None at all, or retries exhausted: apply the gradient
        # unmixed — AD-PSGD's averaging needs no peer cooperation, so
        # nobody else is parked.
        peer = self.participation_ctx.pick_peer(
            rank, self._rng, now, self.engine.worker_up
        )
        if peer is None:
            self._apply(rank, gradient, base_mixes, now)
            return
        index = self.exchange_count
        self.exchange_count += 1
        obs.timed(
            "comm", self._drive_exchange,
            rank, peer, self.model_size * BYTES_PER_VALUE, index,
            lambda t, r=rank, p=peer, g=gradient, b=base_mixes: (
                self._average_then_apply(r, p, g, b, t)
            ),
            lambda t, survivors, r=rank, g=gradient, b=base_mixes: (
                self._apply(r, g, b, t)
            ),
            now=now, takeover=False,
        )

    def _average_then_apply(
        self, rank: int, peer: int, gradient: np.ndarray, base_mixes: int,
        now: float,
    ) -> None:
        obs.timed("mix", self._average_pair, rank, peer)
        self._mix_counts[rank] += 1
        self._mix_counts[peer] += 1
        self._apply(rank, gradient, base_mixes, now, own_mix=1)

    def _average_pair(self, rank: int, peer: int) -> None:
        # Atomic pairwise averaging: x_i, x_j <- (x_i + x_j) / 2.  The
        # peer keeps computing through it (that is AD-PSGD's overlap).
        data = self.arena.data
        mean = 0.5 * (data[rank] + data[peer])
        data[rank] = mean
        data[peer] = mean

    def _apply(
        self, rank: int, gradient: np.ndarray, base_mixes: int, now: float,
        own_mix: int = 0,
    ) -> None:
        """Apply the held gradient; staleness = foreign mixings of this
        worker's model since the gradient was computed."""
        staleness = int(self._mix_counts[rank]) - base_mixes - own_mix
        self.staleness_log.append(max(staleness, 0))
        lr = self.workers[rank].optimizer.lr
        self.arena.data[rank] -= np.asarray(lr * gradient, dtype=self.arena.dtype)
        self.workers[rank].steps_taken += 1
        self._begin_cycle(rank, now)


#: FedAsync's mixing weight and staleness exponent (Xie et al., 2019).
MIXING, STALENESS_POWER = 0.6, 1.0


def staleness_mix(
    global_model: np.ndarray, upload: np.ndarray, staleness: int
) -> np.ndarray:
    """FedAsync's server rule: an upload ``u`` of staleness ``s`` enters the
    global model ``g`` as ``(1 − α)·g + α·u``, ``α = MIXING / (1 + s) **
    STALENESS_POWER``, cast back to ``g``'s dtype."""
    alpha = MIXING / float((1 + staleness) ** STALENESS_POWER)
    mixed = (1.0 - alpha) * global_model + alpha * upload
    return mixed.astype(global_model.dtype, copy=False)


class AsyncFedAvg(AsyncAlgorithm):
    """FedAsync-style federated averaging with a staleness-weighted server.

    Each worker loops on its own clock: download the global model
    (server's transmit link), run ``local_steps`` local SGD steps,
    upload (server's receive link); the server immediately mixes the
    upload in with weight ``MIXING / (1 + staleness) ** STALENESS_POWER``
    where staleness is the number of server updates since this worker's
    download.  Concurrent downloads/uploads serialize on the shared
    server link ends (the event engine's link model) — exactly the
    satellite contention model.

    Under an active fault plan the upload leg is retried with deadline /
    backoff; an upload that exhausts its budget is never mixed in (the
    worker starts a fresh cycle).
    """

    name = "Async-FedAvg"

    def __init__(
        self,
        local_steps: int = 5,
        sample_size: Optional[int] = None,
    ) -> None:
        super().__init__(local_steps=local_steps)
        if sample_size is not None and int(sample_size) < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        #: Sampled participation: at most this many clients hold an
        #: in-flight cycle at any moment; each completed (or dropped)
        #: upload frees the seat for a freshly sampled client.  ``None``
        #: keeps the classic mode where every worker loops forever.
        self.sample_size = None if sample_size is None else int(sample_size)
        self._active: set = set()
        self.global_model: Optional[np.ndarray] = None
        self.server_version = 0
        self.upload_count = 0
        #: Uploads abandoned after exhausting their retries (fault plans).
        self.dropped_uploads = 0

    def _after_setup(self) -> None:
        self.global_model = self.workers[0].snapshot_params()
        self.server_version = 0

    # ------------------------------------------------------------------
    # sampled participation: a K-seat pool over the enrolled population
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.sample_size is None:
            super().start()
            return
        self._cycle_counts = np.zeros(self.num_workers, dtype=np.int64)
        self.initial_model = self.workers[0].snapshot_params()
        self._active = set()
        count = min(self.sample_size, self.num_workers)
        initial = self.participation_ctx.initial_seats(0.0, count, self._rng)
        for rank in initial:
            self._active.add(int(rank))
            self._begin_cycle(int(rank), 0.0)

    def _draw_participant(self, now: float) -> Optional[int]:
        """One fresh (up, idle) client, or ``None`` when none is found."""
        return self.participation_ctx.draw_seat(now, self._rng, self._active)

    def _fill_seat(self, now: float) -> None:
        """Hand a freed participation seat to a freshly sampled client."""
        replacement = self._draw_participant(now)
        if replacement is None:
            # Nobody up and idle right now — poll again shortly rather
            # than leaking the seat for the rest of the run.
            self.engine.schedule(now + 1.0, self._fill_seat)
            return
        self._active.add(replacement)
        self._begin_cycle(replacement, now)

    def _cycle_finished(self, rank: int, now: float) -> None:
        """Cycle end: loop forever (classic) or resample (sampled)."""
        if self.sample_size is None:
            self._begin_cycle(rank, now)
            return
        self._active.discard(rank)
        self._fill_seat(now)

    def on_worker_crashed(self, rank: int, now: float) -> None:
        super().on_worker_crashed(rank, now)
        if self.sample_size is not None and rank in self._active:
            # The crashed client's seat is refilled immediately; its
            # recovery hands the worker back to the dormant pool.
            self._active.discard(rank)
            self._fill_seat(now)

    def restart_worker(self, rank: int, now: float) -> None:
        if self.sample_size is None:
            super().restart_worker(rank, now)
        # Sampled mode: the restored worker rejoins the dormant pool and
        # waits to be sampled again (its seat was refilled at crash time).

    def _start_cycle(self, rank: int, cycle: int, start: float) -> None:
        engine = self.engine
        model_bytes = self.model_size * BYTES_PER_VALUE
        # The download carries the global model as of its start.
        snapshot = self.global_model.copy()
        base_version = self.server_version
        # Tracked: a crash mid-download aborts the transfer and frees the
        # server's transmit end.
        obs.timed(
            "comm", engine.start_tracked,
            start, ((TrafficMeter.SERVER, rank),), model_bytes, self.upload_count,
            lambda t, r=rank, c=cycle, s=snapshot, v=base_version: (
                self._on_download(r, c, s, v, t)
            ),
            counted=False,
        )

    def _on_download(
        self, rank: int, cycle: int, snapshot: np.ndarray, base_version: int,
        now: float,
    ) -> None:
        self.arena.data[rank] = np.asarray(snapshot, dtype=self.arena.dtype)
        engine = self.engine
        duration = engine.compute_seconds(cycle, rank, self.local_steps)
        engine.trace.add(rank, "compute", now, now + duration)
        self._frozen.add(rank)
        self._schedule_worker(
            rank,
            now + duration,
            lambda t, r=rank, v=base_version: self._on_local_done(r, v, t),
        )

    def _on_local_done(self, rank: int, base_version: int, now: float) -> None:
        self._run_local(rank)
        index = self.upload_count
        self.upload_count += 1
        obs.timed(
            "comm", self._drive_exchange,
            rank, TrafficMeter.SERVER, self.model_size * BYTES_PER_VALUE, index,
            lambda t, r=rank, v=base_version: self._on_upload(r, v, t),
            lambda t, survivors, r=rank: self._drop_upload(r, t),
            now=now, takeover=False, bidirectional=False,
        )

    def _drop_upload(self, rank: int, now: float) -> None:
        """An upload out of retries: the server never sees it and the
        worker's cycle ends."""
        self.dropped_uploads += 1
        self._cycle_finished(rank, now)

    def _on_upload(self, rank: int, base_version: int, now: float) -> None:
        staleness = self.server_version - base_version
        self.staleness_log.append(staleness)
        self.global_model = obs.timed(
            "mix", staleness_mix, self.global_model, self.arena.data[rank],
            staleness,
        )
        self.server_version += 1
        self._cycle_finished(rank, now)

    def consensus_model(self) -> np.ndarray:
        """The evaluated model is the server's global model."""
        return self.global_model.copy()
