"""``RenewalPopulation`` as it was before its clients were seeded in
batches: one ``default_rng`` per touched client, kept live in the
timeline.  Kept verbatim as the oracle the batch-seeded population is
checked against (``tests/test_population.py::TestAgainstTheOracle``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List

import numpy as np

from repro.sim.population import ClientPopulation
from repro.utils.rng import derive_seed


class RenewalPopulation(ClientPopulation):
    """Alternating exponential up/down renewal process per client."""

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
