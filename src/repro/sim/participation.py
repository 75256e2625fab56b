"""One participation/residency layer shared by every algorithm family.

PR 8 grew sampled participation piecemeal: FedAvg's round sampler, the
AsyncFedAvg K-seat pool, :class:`~repro.algorithms.sampled`'s copy of
the same pool, and the async cycle gating each re-implemented "who
participates this round, and which arena rows must stay resident while
they do".  This module is the one home for that logic:

* **selection** — the per-round participant draw (classic fraction-``C``
  permutation, exact-``K`` rejection sampling, population-gated
  :meth:`~repro.sim.population.ClientPopulation.sample_up`) and the
  seat-pool draws of the asynchronous variants;
* **gating** — next-up wake times, up-filtering of gossip peer pools,
  and live- and up-restricted uniform peer picks (AD-PSGD's
  communication thread);
* **residency** — pin/acquire scopes over the sampled families'
  :class:`~repro.nn.sharded.ShardedArena` so an exchange's endpoint rows
  cannot be torn by LRU eviction mid-use.  Worker-backed families run on
  the dense :class:`~repro.nn.arena.ParameterArena` and need no pins.

Every method consumes the caller's RNG exactly as the code it replaced
did, so the legacy paths (full participation, no population) stay
bit-identical to the historical trajectories.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sim.population import ClientPopulation
from repro.utils.validation import check_positive


class ParticipationContext:
    """Population + sampler + arena residency contract for one run.

    Parameters
    ----------
    num_clients:
        Enrolled population size.
    population:
        Optional :class:`~repro.sim.population.ClientPopulation`
        availability process; ``None`` means everyone is always up.
    sample_size:
        Exact participants per round (or seats in flight); ``None``
        falls back to the fraction draw (or full participation).
    fraction:
        Classic FedAvg fraction-``C`` participation; only consulted when
        ``sample_size`` is ``None``.  ``None`` means "all clients".
    round_duration:
        Simulated seconds per synchronous round — converts a round index
        into the population-clock time of its participant draw.
    """

    def __init__(
        self,
        num_clients: int,
        population: Optional[ClientPopulation] = None,
        sample_size: Optional[int] = None,
        fraction: Optional[float] = None,
        round_duration: float = 1.0,
    ) -> None:
        num_clients = int(num_clients)
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if population is not None and population.num_clients != num_clients:
            raise ValueError(
                f"population models {population.num_clients} clients, "
                f"context has {num_clients}"
            )
        if sample_size is not None and int(sample_size) < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        check_positive(round_duration, "round_duration")
        self.num_clients = num_clients
        self.population = population
        self.sample_size = None if sample_size is None else int(sample_size)
        self.fraction = None if fraction is None else float(fraction)
        self.round_duration = float(round_duration)

    # ------------------------------------------------------------------
    # round-synchronous selection
    # ------------------------------------------------------------------
    @property
    def is_sampling(self) -> bool:
        """Whether selection deviates from classic full/fraction draws."""
        return self.sample_size is not None or self.population is not None

    def select_round(
        self, round_index: int, rng: np.random.Generator
    ) -> List[int]:
        """The round's participant set (sorted client ids).

        Byte-for-byte the draw FedAvg's ``_select`` historically made:
        the classic fraction-``C`` permutation when neither
        ``sample_size`` nor ``population`` is set, otherwise a
        population-gated ``sample_up`` (with a single-uniform fallback
        on a deep outage) or an exact-``K`` rejection draw.
        """
        if not self.is_sampling:
            if self.fraction is None:
                return list(range(self.num_clients))
            count = max(1, int(round(self.fraction * self.num_clients)))
            return sorted(
                rng.choice(self.num_clients, size=count, replace=False).tolist()
            )
        count = self.sample_size
        if count is None:
            fraction = 1.0 if self.fraction is None else self.fraction
            count = max(1, int(round(fraction * self.num_clients)))
        count = min(count, self.num_clients)
        if self.population is not None:
            time = float(round_index) * self.round_duration
            chosen = self.population.sample_up(time, count, rng)
            if chosen:
                return chosen
            # Nobody reachable this round (deep outage): fall through to
            # a single uniform pick so the round stays well-defined.
            return [int(rng.integers(self.num_clients))]
        # sample_size without a population model: uniform over everyone,
        # O(count) for any enrolment (no O(n) permutation).
        chosen_set: set = set()
        while len(chosen_set) < count:
            for c in rng.integers(
                0, self.num_clients, size=count - len(chosen_set)
            ):
                chosen_set.add(int(c))
        return sorted(chosen_set)

    def round_mask(
        self, round_index: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Boolean participation mask for the round (gossip families)."""
        mask = np.zeros(self.num_clients, dtype=bool)
        mask[self.select_round(round_index, rng)] = True
        return mask

    # ------------------------------------------------------------------
    # seat pools (asynchronous sampled participation)
    # ------------------------------------------------------------------
    def initial_seats(
        self,
        now: float,
        count: int,
        rng: np.random.Generator,
        lazy: bool = False,
    ) -> List[int]:
        """The starting seat holders of a K-seat participant pool.

        ``lazy=False`` draws a permutation sample (the worker-backed
        AsyncFedAvg convention); ``lazy=True`` rejection-samples so the
        draw is O(count) at any enrolment (the worker-less lazy stack).
        With a population both defer to ``sample_up``.
        """
        count = min(int(count), self.num_clients)
        if self.population is not None:
            return [int(c) for c in self.population.sample_up(now, count, rng)]
        if lazy:
            chosen: set = set()
            while len(chosen) < count:
                for c in rng.integers(
                    0, self.num_clients, size=count - len(chosen)
                ):
                    chosen.add(int(c))
            return sorted(chosen)
        return sorted(
            rng.choice(self.num_clients, size=count, replace=False).tolist()
        )

    def draw_seat(
        self, now: float, rng: np.random.Generator, active: Set[int]
    ) -> Optional[int]:
        """One fresh (up, idle) client for a freed seat, or ``None``.

        The 64-attempt rejection loop of the K-seat pools, verbatim: a
        draw already holding a seat is rejected; an empty population
        draw (deep outage) gives up immediately.
        """
        for _ in range(64):
            if self.population is not None:
                drawn = self.population.sample_up(now, 1, rng)
                if not drawn:
                    return None
                candidate = int(drawn[0])
            else:
                candidate = int(rng.integers(self.num_clients))
            if candidate not in active:
                return candidate
        return None

    # ------------------------------------------------------------------
    # availability gating (gossip families)
    # ------------------------------------------------------------------
    def is_up(self, client: int, now: float) -> bool:
        if self.population is None:
            return True
        return self.population.is_up(client, now)

    def wake_at(self, client: int, now: float) -> float:
        """Earliest time >= ``now`` the client can start a cycle."""
        if self.population is None:
            return float(now)
        return self.population.next_up(client, now)

    def prune_down(
        self, pool: Sequence[int], now: float
    ) -> Tuple[List[int], List[int]]:
        """Split a waiting-peer pool into (still up, gone down).

        Without a population everyone is up and the pool is returned
        unchanged — the legacy gossip path, bit-identical.
        """
        if self.population is None:
            return list(pool), []
        up: List[int] = []
        down: List[int] = []
        for peer in pool:
            (up if self.population.is_up(peer, now) else down).append(peer)
        return up, down

    def pick_peer(
        self,
        rank: int,
        rng: np.random.Generator,
        now: float,
        live: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """A uniform peer != ``rank`` among those ``live`` marks (default:
        everyone), restricted to the up population.

        With every peer live this is AD-PSGD's classic shifted-uniform
        draw; otherwise it indexes the ascending list of live peers.
        Without a population that is one RNG draw; with one, down peers
        are rejected for up to 64 attempts.  ``None`` means no peer was
        found and the caller should skip the averaging this cycle.
        """
        peers = None
        if live is None or live.all():
            span = self.num_clients - 1
        else:
            peers = [peer for peer in np.flatnonzero(live).tolist() if peer != rank]
            span = len(peers)
        if span < 1:
            return None
        for _ in range(64):
            peer = int(rng.integers(span))
            if peers is not None:
                peer = peers[peer]
            elif peer >= rank:
                peer += 1
            if self.population is None or self.population.is_up(peer, now):
                return peer
        return None

    # ------------------------------------------------------------------
    # arena residency contract
    # ------------------------------------------------------------------
    @contextmanager
    def resident(self, arena, clients: Iterable[int]):
        """Pin ``clients``' rows of a
        :class:`~repro.nn.sharded.ShardedArena` resident for the scope's
        duration: a pin per client is acquired, and released on exit, so
        LRU eviction cannot tear an exchange's endpoint rows mid-use.
        Eviction-time writeback after release is the arena's business.
        """
        clients = list(clients)
        arena.acquire(clients)
        try:
            yield arena
        finally:
            arena.release(clients)
