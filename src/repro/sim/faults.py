"""Timed fault injection: crash/recover/link schedules on the simulated clock.

A plan can express a worker dying *mid-transfer*, a partner waiting on
a dead peer, or a restarted worker resuming from stale state:

* :class:`FaultEvent` — one timed fault: a worker crash/recovery or a
  link going down/up at a simulated time;
* :class:`FaultPlan` — a validated, time-sorted schedule of fault
  events, either scripted (``FaultPlan(n, events=[...])``, the
  "kill worker 3 at t=30 s" case) or drawn from seeded MTTF/MTTR
  exponential arrival processes (:meth:`FaultPlan.from_rates`), with
  window availability queries (:meth:`FaultPlan.up_during`);
* :meth:`FaultPlan.parse` — the ``--fault-plan`` CLI grammar
  (``"crash:3@10,recover:3@25"`` or ``"mttf=20,mttr=5"``).

Both engines take the same plan.  The event engine
(:mod:`repro.sim.events`) schedules its events on the queue: a crash
aborts in-flight transfers on both link ends and frees the reserved
link clocks; a recovery restores the worker through a
:mod:`repro.resilience` policy.  Synchronous
:class:`repro.algorithms.SAPSPSGD` reads it over each round's window
``[rΔ, rΔ + Δ)``: a worker down anywhere in the window sits the round
out, a link down anywhere in it loses the round's exchange.  An
**empty** plan is inert by contract: engines treat it exactly like
``None`` (zero scheduled events, zero per-exchange overhead — gated in
``benchmarks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

#: Recognized fault kinds, in documentation order.
FAULT_KINDS = ("crash", "recover", "link_down", "link_up")


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    ``worker`` is set for ``crash``/``recover`` events, ``link`` (an
    unordered worker pair) for ``link_down``/``link_up`` events.
    """

    time: float
    kind: str
    worker: Optional[int] = None
    link: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not np.isfinite(self.time) or self.time < 0.0:
            raise ValueError(
                f"fault time must be finite and >= 0, got {self.time}"
            )
        if self.kind in ("crash", "recover"):
            if self.worker is None:
                raise ValueError(f"{self.kind} event needs a worker index")
        else:
            if self.link is None:
                raise ValueError(f"{self.kind} event needs a link pair")
            a, b = self.link
            if a == b:
                raise ValueError(f"link events need two distinct workers, got {self.link}")
            # Normalize so (a, b) and (b, a) name the same link.
            object.__setattr__(self, "link", (min(a, b), max(a, b)))


class FaultPlan:
    """A validated, time-sorted schedule of :class:`FaultEvent`.

    Per worker, crash and recover events must alternate (crash first);
    per link, down and up must alternate (down first).  Ties at one
    timestamp keep their listed order.  The plan is immutable once
    built; engines read it, they never mutate it.
    """

    def __init__(
        self, num_workers: int, events: Sequence[FaultEvent] = ()
    ) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        self.num_workers = int(num_workers)
        # Stable sort: simultaneous events keep their listed order, so a
        # scripted plan's tie-breaking is author-controlled.
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.time)
        )
        self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rates(
        cls,
        num_workers: int,
        mttf: float,
        mttr: float,
        horizon: float,
        seed: SeedLike = 0,
        min_up: int = 2,
    ) -> "FaultPlan":
        """Draw a plan from per-worker exponential failure/repair processes.

        Each worker alternates up-times ``~ Exp(mean=mttf)`` and
        down-times ``~ Exp(mean=mttr)`` on an independent seeded
        substream (spawn keys — adding a worker never perturbs another
        worker's draws).  Crashes that would leave fewer than ``min_up``
        workers alive are dropped together with their recovery, so the
        cluster always keeps a quorum to recover from.
        """
        check_positive(mttf, "mttf")
        check_positive(mttr, "mttr")
        check_positive(horizon, "horizon")
        if not 1 <= min_up <= num_workers:
            raise ValueError(f"min_up must be in [1, {num_workers}], got {min_up}")
        entropy = (
            seed if isinstance(seed, int)
            else int(as_generator(seed).integers(2**31))
        )
        candidates: List[Tuple[float, float, int]] = []  # (down, up, worker)
        for rank in range(num_workers):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy, spawn_key=(rank,))
            )
            t = float(rng.exponential(mttf))
            while t < horizon:
                repair = float(rng.exponential(mttr))
                candidates.append((t, t + repair, rank))
                t = t + repair + float(rng.exponential(mttf))
        # Global sweep: drop crashes that would break the quorum.
        events: List[FaultEvent] = []
        for down, up, rank in sorted(candidates):
            timeline = sorted(
                [(e.time, +1 if e.kind == "recover" else -1) for e in events]
                + [(down, -1)]
            )
            alive, floor = num_workers, num_workers
            for _, delta in timeline:
                alive += delta
                floor = min(floor, alive)
            if floor < min_up:
                continue
            events.append(FaultEvent(down, "crash", worker=rank))
            if up < horizon:
                events.append(FaultEvent(up, "recover", worker=rank))
        return cls(num_workers, events)

    @classmethod
    def parse(
        cls,
        spec: Optional[str],
        num_workers: int,
        horizon: float = 30.0,
        seed: int = 0,
    ) -> Optional["FaultPlan"]:
        """Parse the ``--fault-plan`` grammar.

        ``None``/``""``/``"none"`` → no plan.  ``"mttf=20,mttr=5"``
        (optional ``seed=``, ``min-up=``) → :meth:`from_rates` over
        ``horizon``.  Otherwise a comma-separated event list:
        ``"crash:3@10,recover:3@25,link_down:0-2@5,link_up:0-2@8"``.
        """
        if spec is None or not spec.strip() or spec.strip() == "none":
            return None
        spec = spec.strip()
        if "=" in spec.split(",", 1)[0]:
            params: Dict[str, float] = {}
            for token in spec.split(","):
                key, _, value = token.partition("=")
                key = key.strip().replace("-", "_")
                if key not in ("mttf", "mttr", "seed", "min_up"):
                    raise ValueError(
                        f"unknown fault-plan parameter {key!r} in {spec!r}; "
                        "expected mttf=, mttr=, seed=, min-up="
                    )
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"fault-plan parameter {key}= needs a number, got "
                        f"{value.strip()!r} in {spec!r}"
                    ) from None
            if "mttf" not in params or "mttr" not in params:
                raise ValueError(f"rate-based fault plan needs mttf= and mttr=: {spec!r}")
            return cls.from_rates(
                num_workers,
                mttf=params["mttf"],
                mttr=params["mttr"],
                horizon=horizon,
                seed=int(params.get("seed", seed)),
                min_up=int(params.get("min_up", 2)),
            )
        events = []
        for token in spec.split(","):
            token = token.strip()
            try:
                head, _, at = token.partition("@")
                kind, _, target = head.partition(":")
                time = float(at)
                if kind in ("crash", "recover"):
                    events.append(FaultEvent(time, kind, worker=int(target)))
                else:
                    a, _, b = target.partition("-")
                    events.append(FaultEvent(time, kind, link=(int(a), int(b))))
            except (ValueError, TypeError) as error:
                if isinstance(error, ValueError) and "fault" in str(error):
                    raise
                raise ValueError(
                    f"cannot parse fault event {token!r} (expected "
                    f"'kind:worker@time' or 'kind:a-b@time'): {spec!r}"
                ) from error
        return cls(num_workers, events)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        worker_down: Dict[int, bool] = {}
        link_down: Dict[Tuple[int, int], bool] = {}
        for event in self.events:
            if event.worker is not None and not (
                0 <= event.worker < self.num_workers
            ):
                raise ValueError(
                    f"fault event names worker {event.worker} but the plan "
                    f"covers workers 0..{self.num_workers - 1}"
                )
            if event.link is not None:
                for node in event.link:
                    if not 0 <= node < self.num_workers:
                        raise ValueError(
                            f"fault event names worker {node} (link "
                            f"{event.link}) but the plan covers workers "
                            f"0..{self.num_workers - 1}"
                        )
            if event.kind == "crash":
                if worker_down.get(event.worker, False):
                    raise ValueError(
                        f"worker {event.worker} crashes twice without a "
                        f"recovery (second crash at t={event.time})"
                    )
                worker_down[event.worker] = True
            elif event.kind == "recover":
                if not worker_down.get(event.worker, False):
                    raise ValueError(
                        f"worker {event.worker} recovers at t={event.time} "
                        "without a preceding crash"
                    )
                worker_down[event.worker] = False
            elif event.kind == "link_down":
                if link_down.get(event.link, False):
                    raise ValueError(
                        f"link {event.link} goes down twice without coming "
                        f"up (second at t={event.time})"
                    )
                link_down[event.link] = True
            else:  # link_up
                if not link_down.get(event.link, False):
                    raise ValueError(
                        f"link {event.link} comes up at t={event.time} "
                        "without going down first"
                    )
                link_down[event.link] = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing — engines must treat an
        empty plan exactly like no plan (the zero-overhead contract)."""
        return not self.events

    def down_intervals(self, worker: int) -> List[Tuple[float, float]]:
        """Half-open ``[crash, recover)`` intervals of one worker; an
        unrecovered crash yields ``(crash, inf)``."""
        intervals: List[Tuple[float, float]] = []
        start: Optional[float] = None
        for event in self.events:
            if event.worker != worker:
                continue
            if event.kind == "crash":
                start = event.time
            elif event.kind == "recover" and start is not None:
                intervals.append((start, event.time))
                start = None
        if start is not None:
            intervals.append((start, float("inf")))
        return intervals

    def link_down_intervals(self, a: int, b: int) -> List[Tuple[float, float]]:
        """Half-open down intervals of one (unordered) link."""
        key = (min(a, b), max(a, b))
        intervals: List[Tuple[float, float]] = []
        start: Optional[float] = None
        for event in self.events:
            if event.link != key:
                continue
            if event.kind == "link_down":
                start = event.time
            elif event.kind == "link_up" and start is not None:
                intervals.append((start, event.time))
                start = None
        if start is not None:
            intervals.append((start, float("inf")))
        return intervals

    def up_during(self, worker: int, start: float, end: float) -> bool:
        """Whether ``worker`` is up for all of ``[start, end)``."""
        return not _overlaps(self.down_intervals(worker), start, end)

    def link_up_during(self, a: int, b: int, start: float, end: float) -> bool:
        """Whether link ``a``-``b`` is up for all of ``[start, end)``."""
        return not _overlaps(self.link_down_intervals(a, b), start, end)


def _overlaps(
    intervals: Sequence[Tuple[float, float]], start: float, end: float
) -> bool:
    return any(t0 < end and start < t1 for t0, t1 in intervals)
