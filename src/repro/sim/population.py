"""Client-population availability as an arrival process on the clock.

A per-round availability mask ("is worker ``w`` active in round
``t``?") breaks at population scale twice over: it is indexed by
*round*, which an asynchronous worker does not have, and evaluating it
eagerly for millions of enrolled clients per round is O(enrolment).
This module models
availability the way the event engine thinks — as per-client alternating
up/down *intervals* on the simulated wall clock:

* :class:`RenewalPopulation` — each client alternates exponentially
  distributed up and down periods (an alternating renewal process) from
  its own :func:`~repro.utils.rng.derive_seed` substream, so any
  client's entire availability timeline is deterministic, independent of
  query order, and generated *lazily*: memory scales with clients
  actually queried, never with enrolment.
* :func:`parse_population` — CLI spec parser
  (``"renewal:up=60,down=30"``; ``"always"`` and ``"none"`` are no
  population, every client up at every time).

Queries the algorithms use:

* :meth:`is_up` / :meth:`next_up` — gate an async worker's next cycle on
  its own availability timeline;
* :meth:`sample_up` — draw round participants from the *currently up*
  clients by rejection sampling against the caller's RNG stream, which
  is O(sample) for any enrolment, not O(enrolment).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro.utils.rng import derive_seed


class ClientPopulation:
    """Interface: per-client availability on the simulated clock."""

    def __init__(self, num_clients: int) -> None:
        num_clients = int(num_clients)
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.num_clients = num_clients

    def is_up(self, client: int, time: float) -> bool:
        raise NotImplementedError

    def next_up(self, client: int, time: float) -> float:
        """Earliest ``t >= time`` at which ``client`` is up."""
        raise NotImplementedError

    def sample_up(
        self, time: float, count: int, rng: np.random.Generator
    ) -> List[int]:
        """``count`` distinct clients up at ``time``, drawn uniformly via
        ``rng`` (sorted).  Returns fewer when the up set is (effectively)
        smaller — callers treat a short draw as a thin round."""
        raise NotImplementedError

    def _check_client(self, client: int) -> int:
        client = int(client)
        if not 0 <= client < self.num_clients:
            raise ValueError(
                f"client {client} out of range [0, {self.num_clients})"
            )
        return client


class RenewalPopulation(ClientPopulation):
    """Alternating exponential up/down renewal process per client.

    Each client ``c`` has an independent timeline derived from
    ``derive_seed(seed, "population", c)``: an initial state drawn from
    the stationary availability ``mean_up / (mean_up + mean_down)``,
    then alternating ``Exp(mean_up)`` up and ``Exp(mean_down)`` down
    periods.  Timelines are extended lazily and cached per touched
    client, so a million-client population costs memory only for the
    clients actually queried.
    """

    def __init__(
        self,
        num_clients: int,
        mean_up: float = 60.0,
        mean_down: float = 30.0,
        seed: int = 0,
    ) -> None:
        super().__init__(num_clients)
        if mean_up <= 0 or mean_down <= 0:
            raise ValueError(
                f"mean_up and mean_down must be > 0, got {mean_up}, {mean_down}"
            )
        self.mean_up = float(mean_up)
        self.mean_down = float(mean_down)
        self.seed = int(seed)
        self.availability = self.mean_up / (self.mean_up + self.mean_down)
        #: client -> (initially_up, toggle times ascending, generator)
        self._timelines: Dict[int, tuple] = {}

    @property
    def touched_clients(self) -> int:
        return len(self._timelines)

    def _timeline(self, client: int, until: float):
        state = self._timelines.get(client)
        if state is None:
            gen = np.random.default_rng(
                derive_seed(self.seed, "population", client)
            )
            initially_up = bool(gen.random() < self.availability)
            state = (initially_up, [], gen)
            self._timelines[client] = state
        initially_up, toggles, gen = state
        # Extend past `until`: toggle parity gives the current state, the
        # exponential draw for that state gives the next toggle.
        while not toggles or toggles[-1] <= until:
            up = initially_up == (len(toggles) % 2 == 0)
            mean = self.mean_up if up else self.mean_down
            last = toggles[-1] if toggles else 0.0
            toggles.append(last + float(gen.exponential(mean)))
        return initially_up, toggles

    def is_up(self, client: int, time: float) -> bool:
        client = self._check_client(client)
        time = float(time)
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        initially_up, toggles = self._timeline(client, time)
        return initially_up == (bisect_right(toggles, time) % 2 == 0)

    def next_up(self, client: int, time: float) -> float:
        client = self._check_client(client)
        time = float(time)
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        initially_up, toggles = self._timeline(client, time)
        index = bisect_right(toggles, time)
        if initially_up == (index % 2 == 0):
            return time
        # Down at `time`: up again at the next toggle.
        return toggles[index]

    def sample_up(
        self, time: float, count: int, rng: np.random.Generator
    ) -> List[int]:
        count = min(int(count), self.num_clients)
        if count <= 0:
            return []
        chosen: set = set()
        # Rejection sampling against the up set.  The attempt budget
        # covers availabilities down to ~2% before giving up and
        # returning a short draw (a thin round, not an error).
        attempts = 0
        budget = 50 * count + 200
        while len(chosen) < count and attempts < budget:
            for c in rng.integers(0, self.num_clients, size=count - len(chosen)):
                attempts += 1
                c = int(c)
                if c not in chosen and self.is_up(c, time):
                    chosen.add(c)
        return sorted(chosen)


def parse_population(
    spec: Optional[str], num_clients: int, seed: int = 0
) -> Optional[ClientPopulation]:
    """Build a population model from a CLI spec string.

    ``None`` / ``"none"`` / ``"always"`` -> ``None`` (no population
    gating: every client is up at every time);
    ``"renewal:up=60,down=30"`` -> :class:`RenewalPopulation` (either
    key may be omitted; defaults up=60, down=30).
    """
    if spec is None:
        return None
    text = spec.strip().lower()
    if text in ("", "none", "always"):
        return None
    if text.startswith("renewal"):
        mean_up, mean_down = 60.0, 30.0
        _, _, params = text.partition(":")
        if params:
            for item in params.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep:
                    raise ValueError(
                        f"bad population parameter {item!r} in {spec!r} "
                        f"(expected key=value)"
                    )
                try:
                    number = float(value)
                except ValueError:
                    raise ValueError(
                        f"bad population value {value!r} in {spec!r}"
                    ) from None
                if key == "up":
                    mean_up = number
                elif key == "down":
                    mean_down = number
                else:
                    raise ValueError(
                        f"unknown population key {key!r} in {spec!r} "
                        f"(known: up, down)"
                    )
        return RenewalPopulation(
            num_clients, mean_up=mean_up, mean_down=mean_down, seed=seed
        )
    raise ValueError(
        f"unknown population model {spec!r} — expected 'always', "
        f"'renewal:up=<s>,down=<s>' or 'none'"
    )
