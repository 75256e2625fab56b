"""Sharded lazy parameter arena: resident memory ∝ active clients.

The dense :class:`~repro.nn.arena.ParameterArena` materializes every
worker's row — ``(n, N)`` floats — and is what every worker-backed
family runs on.  The worker-less sampled families
(:mod:`repro.algorithms.sampled`) enrol millions of clients but *sample*
a few hundred participants per round; their memory and per-round work
should scale with the active set, not the enrolment.

:class:`ShardedArena` is their store.  Rows live in a fixed-size
``(capacity, N)`` slot matrix.  :meth:`row` maps a client id to its slot,
faulting dormant clients in lazily — from the evicted-row writeback
store if the client ran before (``retain_evicted=True``), else from the
cold-state vector (the init-replay / checkpoint-fetch stand-in) — and
evicting the least-recently-used unpinned resident when the shard is
full.  :meth:`acquire` / :meth:`release` pin a participant set for the
duration of a round so mid-round evictions cannot tear the rows a
kernel is writing.  Slots are handed out in first-touch order, so slot
``s`` holds whichever client faulted in ``s``-th, never client ``s`` by
construction; read and write client state through :meth:`row` /
:meth:`peek`.

``resident_bytes()`` is the honest accounting the million-client demo
and the ``sampled_saps100k`` benchmark workload report: slot storage plus
writeback store, i.e. memory proportional to clients *touched*, never
enrolment.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.arena import consensus_fold
from repro.utils.dtypes import DTypeLike, resolve_dtype


class ShardedArena:
    """LRU-evicted sharded parameter store for huge ``n``.

    Parameters
    ----------
    num_clients:
        Enrolled population size (row ids run ``0..num_clients-1``).
    model_size:
        Flat parameter count per client.
    capacity:
        Resident row budget (clamped to ``num_clients``).
    retain_evicted:
        Whether evicted rows are written back to a per-client store and
        restored on the next touch (peer-to-peer semantics).  ``False``
        drops evicted rows — correct for server-centric algorithms whose
        participants always download fresh state, and what keeps the
        resident footprint flat.
    """

    def __init__(
        self,
        num_clients: int,
        model_size: int,
        capacity: int,
        dtype: DTypeLike = None,
        retain_evicted: bool = True,
    ) -> None:
        num_clients = int(num_clients)
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if model_size < 0:
            raise ValueError(f"model_size must be >= 0, got {model_size}")
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        rows = min(capacity, num_clients)
        self.num_clients = num_clients
        self.model_size = int(model_size)
        self.capacity = rows
        self.dtype = resolve_dtype(dtype)
        self.data = np.zeros((rows, self.model_size), dtype=self.dtype)
        self.retain_evicted = bool(retain_evicted)
        #: The flat vector dormant clients start from (e.g. the global
        #: model at enrolment), set by :meth:`set_cold`; ``None`` means
        #: zeros.
        self._cold = None
        self._slot_of: Dict[int, int] = {}
        self._lru: "OrderedDict[int, int]" = OrderedDict()  # client -> slot
        self._free: List[int] = list(range(rows - 1, -1, -1))
        self._pinned: Dict[int, int] = {}  # client -> pin count
        self._store: Dict[int, np.ndarray] = {}  # evicted client -> row copy
        self._stats_base: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        #: Bytes copied into the writeback store by evictions — the
        #: actual I/O cost of LRU churn (``arena.writeback_bytes``).
        self.writeback_bytes = 0
        #: Pin-contention: evict-candidate scans that had to skip an
        #: already-pinned LRU row (a gossip exchange or participation
        #: holding it resident).  Rising fast relative to ``misses``
        #: means capacity is too tight for the concurrent pin set.
        self.pin_contentions = 0
        #: High-water mark of simultaneously pinned clients.
        self.peak_pins = 0

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _check_client(self, client: int) -> int:
        client = int(client)
        if not 0 <= client < self.num_clients:
            raise ValueError(
                f"client {client} out of range [0, {self.num_clients})"
            )
        return client

    def slot_of(self, client: int) -> int:
        """Resident slot of ``client``, faulting the row in if needed."""
        client = self._check_client(client)
        slot = self._slot_of.get(client)
        if slot is not None:
            self.hits += 1
            self._lru.move_to_end(client)
            return slot
        self.misses += 1
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._evict_one()
        self._slot_of[client] = slot
        self._lru[client] = slot
        row = self.data[slot]
        stored = self._store.pop(client, None)
        if stored is not None:
            row[...] = stored
        elif self._cold is not None:
            row[...] = self._cold
        else:
            row[...] = 0
        return slot

    def _evict_one(self) -> int:
        victim = None
        for client in self._lru:
            if client in self._pinned:
                self.pin_contentions += 1
                continue
            victim = client
            break
        if victim is None:
            raise RuntimeError(
                f"all {self.capacity} resident rows are pinned — capacity is "
                f"smaller than the concurrently active set; raise capacity "
                f"above the per-round participant count"
            )
        slot = self._lru.pop(victim)
        del self._slot_of[victim]
        self._write_back(victim, slot)
        return slot

    def _write_back(self, client: int, slot: int) -> None:
        if self.retain_evicted:
            self._store[client] = self.data[slot].copy()
            self.writebacks += 1
            self.writeback_bytes += self.data[slot].nbytes
        self.evictions += 1

    def acquire(self, clients: Iterable[int]) -> np.ndarray:
        """Pin ``clients`` resident; returns their slots in input order.

        Pins nest (acquire twice, release twice); only clients not
        already pinned count against ``capacity``."""
        clients = [self._check_client(c) for c in clients]
        fresh = {c for c in clients if c not in self._pinned}
        if len(self._pinned) + len(fresh) > self.capacity:
            raise RuntimeError(
                f"cannot pin {len(fresh)} clients with "
                f"{len(self._pinned)} already pinned: capacity is {self.capacity}"
            )
        slots = np.empty(len(clients), dtype=np.int64)
        for i, client in enumerate(clients):
            slots[i] = self.slot_of(client)
            self._pinned[client] = self._pinned.get(client, 0) + 1
        self.peak_pins = max(self.peak_pins, len(self._pinned))
        return slots

    def release(self, clients: Iterable[int]) -> None:
        """Drop one pin per listed client (rows stay resident until
        evicted).  Nothing changes unless every pin being dropped exists."""
        drops = Counter(int(client) for client in clients)
        for client, count in drops.items():
            if self._pinned.get(client, 0) < count:
                raise ValueError(f"client {client} is not pinned")
        for client, count in drops.items():
            left = self._pinned[client] - count
            if left:
                self._pinned[client] = left
            else:
                del self._pinned[client]

    def evict(self, client: int) -> None:
        """Force ``client`` out of residency (no-op if absent)."""
        client = self._check_client(client)
        if client in self._pinned:
            raise ValueError(f"client {client} is pinned")
        slot = self._slot_of.pop(client, None)
        if slot is None:
            return
        del self._lru[client]
        self._write_back(client, slot)
        self._free.append(slot)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def row(self, client: int) -> np.ndarray:
        """Client ``client``'s flat model (live view into its slot).

        The view is only stable until the client's next eviction — pin
        via :meth:`acquire` across any deferred use."""
        return self.data[self.slot_of(client)]

    def peek(self, client: int) -> np.ndarray:
        """Client state *without* faulting it in (copy for dormant rows).

        Resident rows return the live view; evicted rows return the
        writeback copy; never-touched clients return the cold state."""
        client = self._check_client(client)
        slot = self._slot_of.get(client)
        if slot is not None:
            return self.data[slot]
        stored = self._store.get(client)
        if stored is not None:
            return stored
        return self._cold_vector.copy()

    def set_cold(self, vector: np.ndarray) -> None:
        """Install the state dormant (never-touched) clients start from."""
        self._cold = np.array(vector, dtype=self.dtype, copy=True).reshape(
            self.model_size
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def resident_clients(self) -> int:
        return len(self._slot_of)

    @property
    def stored_clients(self) -> int:
        return len(self._store)

    def resident_bytes(self) -> int:
        """Bytes held for client state: slots + writeback store."""
        total = self.data.nbytes
        total += len(self._store) * self.model_size * self.dtype.itemsize
        return total

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "writeback_bytes": self.writeback_bytes,
            "pin_contentions": self.pin_contentions,
            "peak_pins": self.peak_pins,
            "resident": self.resident_clients,
            "stored": self.stored_clients,
        }

    #: Counter (flow) keys of :meth:`stats` — the keys ``stats_delta``
    #: differences; the rest (``peak_pins``, ``resident``, ``stored``)
    #: are levels and pass through as-is.
    _FLOW_KEYS = (
        "hits",
        "misses",
        "evictions",
        "writebacks",
        "writeback_bytes",
        "pin_contentions",
    )

    def stats_delta(self) -> Dict[str, int]:
        """:meth:`stats` since the previous ``stats_delta`` call.

        Flow counters (hits/misses/evictions/writebacks/bytes/
        contentions) come back as deltas; level fields (``resident``,
        ``stored``, ``peak_pins``) keep their current values.  The first
        call baselines against zero, i.e. returns the cumulative stats.
        """
        stats = self.stats()
        delta = dict(stats)
        for key in self._FLOW_KEYS:
            delta[key] = stats[key] - self._stats_base.get(key, 0)
        self._stats_base = {key: stats[key] for key in self._FLOW_KEYS}
        return delta

    # ------------------------------------------------------------------
    # consensus over the three kinds of client state
    # ------------------------------------------------------------------
    def resident_rows(self) -> List[np.ndarray]:
        """Live views of the resident client rows, in slot order."""
        return [self.data[slot] for slot in sorted(self._slot_of.values())]

    def consensus(self) -> Tuple[np.ndarray, float]:
        """``(x̄, (1/n) Σᵢ ‖xᵢ − x̄‖²)`` over the whole enrolment, never
        building ``(n, N)``: the resident rows, the writeback store, and
        every never-touched client as one cold mass, summed in float64
        (:func:`~repro.nn.arena.consensus_fold`)."""
        rows = self.resident_rows() + list(self._store.values())
        return consensus_fold(
            rows,
            cold=self._cold_vector,
            cold_count=self.num_clients - len(rows),
            dtype=np.float64,
        )

    @property
    def _cold_vector(self) -> np.ndarray:
        """The state every never-touched client sits at."""
        if self._cold is not None:
            return self._cold
        return np.zeros(self.model_size, dtype=self.dtype)
