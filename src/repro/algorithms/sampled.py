"""Million-client sampled participation: the worker-less families.

The worker-backed algorithm stack materializes a :class:`TrainingWorker`
(model, optimizer, dataset partition) per enrolled client — O(n) memory
and O(n) setup, which caps runs at a few thousand clients.  Production
federated populations are 10⁵–10⁷ enrolled clients of which a few
hundred participate per round; everything per-client must be lazy.

This module is that execution mode:

* :class:`LogisticBlobsTask` — the lazy workload.  Each client's batches
  come from a :func:`~repro.utils.rng.derive_seed` substream on demand,
  so no partition list is ever materialized;
* :class:`SampledSAPS` — synchronous SAPS-PSGD over a sampled
  neighborhood per round (in-sample matching, Eq. 7 on pinned rows);
* :class:`SampledAsyncFedAvg` — FedAsync with K in-flight participants
  on the calendar-queue event engine, applying the same
  staleness-weighted mixing rule as
  :class:`~repro.algorithms.asynchronous.AsyncFedAvg`.

Both families keep client state in a
:class:`~repro.nn.sharded.ShardedArena` (resident rows ∝ concurrently
active clients, dormant clients cost nothing) and take availability from
a lazy :class:`~repro.sim.population.ClientPopulation`.
:class:`SampledAsyncFedAvg` speaks the engine protocol (``bind`` /
``start`` / ``mean_train_loss`` / ``consensus_distance``) plus the
``evaluate_consensus_model`` hook, so :meth:`EventEngine.run` drives and
checkpoints it like any worker-backed variant.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.algorithms.asynchronous import staleness_mix
from repro.algorithms.base import DivergenceError
from repro.compression.base import BYTES_PER_VALUE, check_compression_ratio
from repro.compression.random_mask import generate_mask
from repro.core.gossip import average_pairs
from repro.core.matching import greedy_weighted_matching
from repro.network.metrics import TrafficMeter
from repro.nn.arena import consensus_fold
from repro.nn.sharded import ShardedArena
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import Substreams, derive_seed
from repro.utils.validation import check_non_negative


def _check_sampling(
    num_clients: int, min_clients: int, sample_size: int,
    capacity: Optional[int], local_steps: int, lr: float,
) -> Tuple[int, int, int]:
    """The sampled families' shared argument checks: ``(num_clients,
    sample_size, capacity)`` as ints, ``capacity`` defaulted."""
    num_clients = int(num_clients)
    sample_size = int(sample_size)
    if num_clients < min_clients:
        raise ValueError(
            f"num_clients must be >= {min_clients}, got {num_clients}"
        )
    if not 1 <= sample_size <= num_clients:
        raise ValueError(
            f"sample_size must be in [1, {num_clients}], got {sample_size}"
        )
    if local_steps < 1:
        raise ValueError(f"local_steps must be >= 1, got {local_steps}")
    if capacity is None:
        # Headroom above the pinned set so pins can never dead-lock
        # and recently-active rows get a little reuse.
        capacity = min(num_clients, 2 * sample_size + 16)
    capacity = int(capacity)
    if capacity < sample_size:
        raise ValueError(
            f"capacity ({capacity}) must cover the {sample_size} "
            f"concurrently pinned participants"
        )
    check_non_negative(lr, "lr")
    return num_clients, sample_size, capacity


def _pair_by_caps(
    caps: np.ndarray, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """:func:`greedy_weighted_matching` under bottleneck weights
    ``min(caps[i], caps[j])``: the same ``(low, high)`` pairs, in the same
    order, with ``rng`` left in the same state.

    With distinct caps, heaviest-first greedy pairs clients adjacent in
    descending-cap order, (1st, 2nd), (3rd, 4th), …: once every weight
    above the k-th cap is taken, at most one client ranked above k is
    still free, so no tie key decides.  The sort advances ``rng`` past
    the ``K(K−1)/2`` keys (one 64-bit output each) the matcher draws.
    Equal caps let the keys decide: such a round runs the matcher on the
    ``(K, K)`` matrix.
    """
    order = np.argsort(-caps, kind="stable")
    if np.any(np.diff(caps[order]) == 0):
        weights = np.minimum.outer(caps, caps)
        np.fill_diagonal(weights, 0.0)
        return greedy_weighted_matching(weights, rng=rng)
    count = caps.size
    rng.bit_generator.advance(count * (count - 1) // 2)
    pairs = np.sort(order[: count - count % 2].reshape(-1, 2), axis=1)
    return sorted(map(tuple, pairs.tolist()))


class LogisticBlobsTask:
    """Softmax regression on per-client Gaussian blobs, fully lazy.

    A shared set of class centers defines the problem; client ``c``'s
    step ``s`` batch is regenerated on demand from
    ``derive_seed(seed, "client", c, s)`` — identical every time it is
    asked for, never stored.  The model is the flat ``(C·D + C)`` vector
    ``[W.ravel(), b]`` and local training is plain softmax-cross-entropy
    SGD, vectorized over the batch and stacked over a round's clients.
    """

    #: Standard deviation of the features around their unit-norm class
    #: center.
    noise = 0.6

    def __init__(
        self,
        num_features: int = 32,
        num_classes: int = 10,
        batch_size: int = 16,
        validation_samples: int = 2048,
        seed: int = 0,
    ) -> None:
        if num_features < 1 or num_classes < 2:
            raise ValueError(
                f"need num_features >= 1 and num_classes >= 2, got "
                f"{num_features}, {num_classes}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if validation_samples < 1:
            raise ValueError(
                f"validation_samples must be >= 1, got {validation_samples}"
            )
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.model_size = self.num_classes * self.num_features + self.num_classes
        self._batch_streams = Substreams(self.seed, "client")
        rng = np.random.default_rng(derive_seed(self.seed, "task-centers"))
        # Unit-norm class centers: separation is controlled by `noise`.
        centers = rng.normal(size=(self.num_classes, self.num_features))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        self.centers = centers
        val_rng = np.random.default_rng(derive_seed(self.seed, "task-validation"))
        self.val_labels = val_rng.integers(
            self.num_classes, size=int(validation_samples)
        )
        self.val_features = self.centers[self.val_labels] + self.noise * (
            val_rng.normal(size=(int(validation_samples), self.num_features))
        )

    # ------------------------------------------------------------------
    # lazy per-client data
    # ------------------------------------------------------------------
    def client_batch(self, client: int, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """Client ``client``'s ``step``-th batch (deterministic, lazy)."""
        features, labels = self._batches([(client, step)])
        return features[0], labels[0]

    def _batches(self, keys: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """``(M, B, D)`` features and ``(M, B)`` labels of the batches at
        ``(client, step)`` keys, seeded in one pass.  Each key's draws
        are its own ``default_rng`` stream's; the features are
        ``noise · z + centers[labels]`` over the whole block, which IEEE
        commutativity makes the per-key ``centers[labels] + noise · z``."""
        streams = self._batch_streams
        labels = np.empty((len(keys), self.batch_size), dtype=np.int64)
        normals = np.empty((len(keys), self.batch_size, self.num_features))
        for k, state in enumerate(streams.states(keys)):
            rng = streams.at(state)
            labels[k] = rng.integers(self.num_classes, size=self.batch_size)
            normals[k] = rng.normal(size=(self.batch_size, self.num_features))
        normals *= self.noise
        normals += self.centers[labels]
        return normals, labels

    # ------------------------------------------------------------------
    # flat-vector model ops
    # ------------------------------------------------------------------
    def _unpack(self, vector: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        split = self.num_classes * self.num_features
        weights = vector[:split].reshape(self.num_classes, self.num_features)
        bias = vector[split:]
        return weights, bias

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    def run_local(
        self, rows: np.ndarray, clients: Sequence[int], cycles: Sequence[int],
        steps: int, lr: float,
    ) -> np.ndarray:
        """``steps`` SGD steps in place on each of the ``(K, N)`` ``rows``,
        row ``k`` on client ``clients[k]``'s batches of its ``cycles[k]``-th
        participation; returns each row's mean loss.  The rows step as
        stacked BLAS (``(K, B, D) @ (K, D, C)`` logits, softmax and loss on
        the last axis): each gets the floats it would get trained alone."""
        count = rows.shape[0]
        split = self.num_classes * self.num_features
        weights = rows[:, :split].reshape(count, self.num_classes, -1)
        bias = rows[:, split:]
        # Row k's sample b starts at flat offset (k * B + b) * C of a
        # (K, B, C) block; adding the sample's label picks its label column.
        offsets = np.arange(count * self.batch_size).reshape(count, -1)
        offsets *= self.num_classes
        losses = np.empty((count, steps))
        # Every (step, row) batch of the pass, seeded together.
        all_features, all_labels = self._batches([
            (client, cycle * steps + local)
            for local in range(steps)
            for client, cycle in zip(clients, cycles)
        ])
        for local in range(steps):
            features = all_features[local * count:(local + 1) * count]
            labels = all_labels[local * count:(local + 1) * count]
            probs = self._softmax(
                features @ weights.transpose(0, 2, 1) + bias[:, None, :]
            )
            picked = offsets + labels
            log_p = np.log(probs.reshape(-1)[picked] + 1e-12)
            losses[:, local] = -log_p.sum(axis=1) / self.batch_size
            grad_logits = probs
            grad_logits.reshape(-1)[picked] -= 1.0
            grad_logits /= self.batch_size
            weights -= lr * (grad_logits.transpose(0, 2, 1) @ features)
            bias -= lr * grad_logits.sum(axis=1)
        return losses.sum(axis=1) / steps

    def evaluate(self, vector: np.ndarray) -> Tuple[float, float]:
        """(validation loss, accuracy) of a flat model vector."""
        weights, bias = self._unpack(np.asarray(vector, dtype=np.float64))
        probs = self._softmax(self.val_features @ weights.T + bias)
        rows = np.arange(len(self.val_labels))
        loss = -float(np.mean(np.log(probs[rows, self.val_labels] + 1e-12)))
        accuracy = float(np.mean(probs.argmax(axis=1) == self.val_labels))
        return loss, accuracy


class SampledAsyncFedAvg:
    """FedAsync over an enrolled population with K in-flight participants.

    At any moment exactly ``sample_size`` clients hold a participation
    seat: download → local steps → upload → staleness-weighted server
    mix, then the seat is handed to a freshly sampled (up, idle) client.
    All per-client state rides the :class:`ShardedArena` pinned across
    the participation, so resident memory is ∝ the active set for any
    enrolment.

    The server mixing rule, staleness accounting and traffic metering
    match :class:`~repro.algorithms.asynchronous.AsyncFedAvg`; the
    difference is purely the lazy substrate (no TrainingWorkers, no
    partitions, no dense arena).  Fault plans are not supported — the
    crash/recovery machinery lives in the worker-backed stack.
    """

    name = "Sampled-Async-FedAvg"
    is_asynchronous = True

    def __init__(
        self,
        task: LogisticBlobsTask,
        num_clients: int,
        sample_size: int = 512,
        capacity: Optional[int] = None,
        local_steps: int = 5,
        lr: float = 0.1,
        dtype: DTypeLike = None,
        seed: int = 0,
    ) -> None:
        num_clients, sample_size, capacity = _check_sampling(
            num_clients, 1, sample_size, capacity, local_steps, lr
        )
        self.task = task
        self.num_workers = num_clients  # engine-protocol name
        self.num_clients = num_clients
        self.sample_size = sample_size
        self.local_steps = int(local_steps)
        self.lr = float(lr)
        self.model_size = task.model_size
        self.model_bytes = task.model_size * BYTES_PER_VALUE
        dtype = resolve_dtype(dtype)
        # Server-centric semantics: participants always download fresh
        # global state, so evicted rows need no writeback store.
        self.arena = ShardedArena(
            num_clients,
            task.model_size,
            dtype=dtype,
            capacity=capacity,
            retain_evicted=False,
        )
        self.global_model = np.zeros(task.model_size, dtype=dtype)
        self.arena.set_cold(self.global_model)
        self._rng = np.random.default_rng(derive_seed(seed, "sampled-server"))
        self.engine = None
        #: Shared participation/residency layer, built at :meth:`bind`.
        self.participation_ctx = None
        self.server_version = 0
        self.upload_count = 0
        self.total_local_steps = 0
        self.staleness_log: List[int] = []
        self._loss_sum = 0.0
        self._loss_events = 0
        self._active: set = set()
        self._cycle_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # engine protocol
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        if engine.num_workers != self.num_clients:
            raise ValueError(
                f"engine has {engine.num_workers} workers, algorithm "
                f"has {self.num_clients}"
            )
        if engine.faults_active:
            raise ValueError(
                "SampledAsyncFedAvg does not support fault plans — use the "
                "worker-backed AsyncFedAvg for crash/recovery studies"
            )
        self.engine = engine
        from repro.sim.participation import ParticipationContext

        self.participation_ctx = ParticipationContext(
            self.num_clients,
            population=getattr(engine, "population", None),
            sample_size=self.sample_size,
        )

    def start(self) -> None:
        initial = self.participation_ctx.initial_seats(
            0.0, self.sample_size, self._rng, lazy=True
        )
        for client in initial:
            self._active.add(int(client))
            self._launch(int(client), 0.0)

    @property
    def mean_train_loss(self) -> float:
        if self._loss_events == 0:
            return float("nan")
        return self._loss_sum / self._loss_events

    def consensus_distance(self) -> float:
        """Mean squared distance of *resident* rows to the global model.

        The dense definition averages over every worker; at million-scale
        only the active working set is materialized, so this reports the
        drift of the rows that exist — the honest sampled analogue.
        """
        return consensus_fold(
            self.arena.resident_rows(), center=self.global_model
        )[1]

    def evaluate_consensus_model(self, validation) -> Tuple[float, float]:
        """Engine snapshot hook: the task owns its validation split."""
        return self.task.evaluate(self.global_model)

    # ------------------------------------------------------------------
    # sampling (delegated to the shared participation layer)
    # ------------------------------------------------------------------
    def _fill_seat(self, now: float) -> None:
        replacement = self.participation_ctx.draw_seat(
            now, self._rng, self._active
        )
        if replacement is None:
            self.engine.schedule(now + 1.0, self._fill_seat)
            return
        self._active.add(replacement)
        self._launch(replacement, now)

    # ------------------------------------------------------------------
    # the participation state machine
    # ------------------------------------------------------------------
    def _launch(self, client: int, now: float) -> None:
        engine = self.engine
        population = engine.population
        if population is not None:
            up_at = population.next_up(client, now)
            if up_at > now:
                engine.schedule(
                    up_at, lambda t, c=client: self._launch(c, t)
                )
                return
        # The download carries the global model as of its start.
        snapshot = self.global_model.copy()
        version = self.server_version
        engine.start_tracked(
            now, ((TrafficMeter.SERVER, client),), self.model_bytes,
            self.upload_count,
            lambda t, c=client, s=snapshot, v=version: (
                self._on_download(c, s, v, t)
            ),
        )

    def _on_download(
        self, client: int, snapshot: np.ndarray, version: int, now: float
    ) -> None:
        engine = self.engine
        # Pin for the whole participation: local steps and the upload
        # read/write this row, eviction in between would tear it.
        self.arena.acquire([client])
        self.arena.row(client)[...] = snapshot
        cycle = self._cycle_counts.get(client, 0)
        self._cycle_counts[client] = cycle + 1
        duration = engine.compute_seconds(cycle, client, self.local_steps)
        engine.trace.add(client, "compute", now, now + duration)
        engine.schedule(
            now + duration,
            lambda t, c=client, v=version, cy=cycle: (
                self._on_compute_done(c, v, cy, t)
            ),
        )

    def _on_compute_done(
        self, client: int, version: int, cycle: int, now: float
    ) -> None:
        (loss,) = self.task.run_local(
            self.arena.row(client)[None], [client], [cycle],
            self.local_steps, self.lr,
        )
        if not math.isfinite(loss):
            raise DivergenceError(
                f"{self.name}: client {client} produced a non-finite loss in "
                f"its local step at simulated time {now}"
            )
        self.total_local_steps += self.local_steps
        self._loss_sum += float(loss)
        self._loss_events += 1
        self.engine.start_tracked(
            now, ((client, TrafficMeter.SERVER),), self.model_bytes,
            self.upload_count,
            lambda t, c=client, v=version: self._on_upload(c, v, t),
        )

    def _on_upload(self, client: int, version: int, now: float) -> None:
        staleness = self.server_version - version
        self.staleness_log.append(staleness)
        self.global_model = staleness_mix(
            self.global_model, self.arena.row(client), staleness
        )
        self.server_version += 1
        self.upload_count += 1
        self.arena.release([client])
        self._active.discard(client)
        self._fill_seat(now)


class SampledSAPS:
    """Sampled-neighborhood SAPS-PSGD over a huge enrolled population.

    The worker-backed :class:`~repro.algorithms.saps_psgd.SAPSPSGD` plans
    its max-weight matching over the full ``(n, n)`` bandwidth matrix and
    keeps every replica dense — both O(n) or O(n²) in the enrolment.
    Here each round draws ``sample_size`` up clients through the shared
    :class:`~repro.sim.participation.ParticipationContext`, matches
    *within* the sample on bottleneck links (``min`` of two lazily seeded
    uplink caps: a sort, :func:`_pair_by_caps`), and runs the paper's
    shared-mask Eq. (7) exchange on :class:`ShardedArena` rows pinned for
    the round.  Evicted rows write back (``retain_evicted=True``): gossip
    is peer-to-peer, a client's model *is* its state between
    participations, unlike the download-fresh server-centric
    :class:`SampledAsyncFedAvg`.

    Resident memory is ∝ ``capacity``, never enrolment; the consensus
    model folds resident rows + writeback store + lazy cold mass
    (:meth:`ShardedArena.consensus`), so nothing ever materializes
    ``(n, N)``.
    """

    name = "Sampled-SAPS"

    def __init__(
        self,
        task: LogisticBlobsTask,
        num_clients: int,
        sample_size: int = 512,
        capacity: Optional[int] = None,
        compression_ratio: float = 100.0,
        local_steps: int = 1,
        lr: float = 0.1,
        round_duration: float = 1.0,
        population=None,
        dtype: DTypeLike = None,
        seed: int = 0,
    ) -> None:
        num_clients, sample_size, capacity = _check_sampling(
            num_clients, 2, sample_size, capacity, local_steps, lr
        )
        # Imported here: repro.algorithms must not import the repro.sim
        # package at module load (sim.comparison imports the algorithms).
        from repro.sim.participation import ParticipationContext

        self.participation_ctx = ParticipationContext(
            num_clients, population=population, sample_size=sample_size,
            round_duration=round_duration,
        )
        self.task = task
        self.num_clients = num_clients
        self.num_workers = num_clients
        self.sample_size = sample_size
        self.compression_ratio = check_compression_ratio(compression_ratio)
        self.local_steps = int(local_steps)
        self.lr = float(lr)
        self.round_duration = float(round_duration)
        self.seed = int(seed)
        self.model_size = task.model_size
        self.model_bytes = task.model_size * BYTES_PER_VALUE
        # Peer-to-peer semantics: an evicted participant's row must
        # survive to its next participation, so writeback is mandatory.
        self.arena = ShardedArena(
            num_clients,
            task.model_size,
            dtype=resolve_dtype(dtype),
            capacity=capacity,
            retain_evicted=True,
        )
        # Dedicated substreams, mirroring SAPSPSGD: participation draws
        # never perturb matching tie-breaks or mask seeds.
        self._participation_rng = np.random.default_rng(
            derive_seed(self.seed, "participation")
        )
        self._matching_rng = np.random.default_rng(
            derive_seed(self.seed, "matching")
        )
        self._bandwidth: Dict[int, float] = {}
        self._bandwidth_streams = Substreams(self.seed, "bandwidth")
        self.last_participants: Optional[List[int]] = None
        self.exchange_count = 0
        self.exchanged_bytes = 0
        self.total_local_steps = 0
        self._cycle_counts: Dict[int, int] = {}

    def _caps(self, participants: List[int]) -> np.ndarray:
        """The participants' uplink capabilities: each client's is uniform
        on [1, 100) Mbps from its own ``derive_seed(seed, "bandwidth", c)``
        substream, drawn on first use (the round's new clients seeded in
        one pass) and kept.  A pair's rate is the bottleneck link, ``min``
        of its two caps."""
        bandwidth = self._bandwidth
        fresh = [c for c in participants if c not in bandwidth]
        streams = self._bandwidth_streams
        for client, state in zip(fresh, streams.states([(c,) for c in fresh])):
            bandwidth[client] = float(streams.at(state).uniform(1.0, 100.0))
        return np.array([bandwidth[c] for c in participants], dtype=np.float64)

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> float:
        ctx = self.participation_ctx
        participants = ctx.select_round(round_index, self._participation_rng)
        self.last_participants = list(participants)
        if not participants:
            return float("nan")

        # Greedy max-weight matching restricted to the sampled (up)
        # neighborhood; local indices map back through `participants`.
        caps = self._caps(participants)
        matching = [
            (participants[i], participants[j])
            for i, j in _pair_by_caps(caps, self._matching_rng)
        ]

        mask = generate_mask(
            self.model_size,
            self.compression_ratio,
            derive_seed(self.seed, "mask", round_index),
        )
        indices = np.flatnonzero(mask)

        # Pin the whole participant set for the round: local SGD and the
        # pairwise merge hold slots, eviction would hand them to others.
        arena = self.arena
        with ctx.resident(arena, participants):
            # Rows are touched in draw order, then pair by pair in matching
            # order: that LRU order picks the next rounds' eviction victims.
            slots = [arena.slot_of(client) for client in participants]
            cycles = [self._cycle_counts.get(c, 0) for c in participants]
            for client, cycle in zip(participants, cycles):
                self._cycle_counts[client] = cycle + 1
            rows = arena.data[slots]
            losses = obs.timed(
                "compute", self.task.run_local, rows, participants, cycles,
                self.local_steps, self.lr,
            )
            finite = np.isfinite(losses)
            if not finite.all():
                raise DivergenceError(
                    f"{self.name}: client {participants[int(np.argmin(finite))]}"
                    f" produced a non-finite loss in its local step at round "
                    f"{round_index}"
                )
            arena.data[slots] = rows
            self.total_local_steps += len(participants) * self.local_steps
            if matching:
                pair_slots = np.array(
                    [(arena.slot_of(a), arena.slot_of(b)) for a, b in matching]
                )
                obs.timed(
                    "mix", average_pairs, arena.data, pair_slots[:, :1],
                    pair_slots[:, 1:], indices,
                )
            self.exchange_count += len(matching)
            self.exchanged_bytes += (
                2 * len(matching) * indices.size * BYTES_PER_VALUE
            )
        return float(np.mean(losses))

    def evaluate(self) -> Tuple[float, float]:
        """(validation loss, accuracy) of the whole enrolment's mean model."""
        return self.task.evaluate(self.arena.consensus()[0])
