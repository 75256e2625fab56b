"""Streaming consensus diagnostics for arenas that never go dense.

The dense diagnostics (:meth:`ParameterArena.mean_model`,
:meth:`ParameterArena.consensus_distance`) are one-pass reductions over
the materialized ``(n, N)`` replica matrix — unavailable at million-
client enrolment, where a :class:`~repro.nn.sharded.ShardedArena` holds
only the resident working set, a writeback store of evicted rows, and a
single *cold* vector standing in for every never-touched client.

:class:`StreamingMoments` folds per-coordinate mean and variance over
row groups with Chan et al.'s parallel-Welford merge, so the population
statistics

* ``x̄ = (1/n) Σᵢ xᵢ``  (the consensus model), and
* ``(1/n) Σᵢ ‖xᵢ − x̄‖²``  (the paper's consensus distance)

come out of one pass over *resident* state: blocks of live slots, blocks
of stored rows, and the cold mass folded as ``count`` copies of one
vector in O(N) — the full ``(n, N)`` matrix is never materialized.
:func:`arena_consensus` wires the fold to a sharded arena.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class StreamingMoments:
    """Per-coordinate running mean/variance over weighted row groups.

    Groups are merged with the numerically stable pairwise update
    (Chan/Welford): for groups ``a`` (accumulated) and ``b`` (incoming)
    with counts ``n_a, n_b``, means ``m_a, m_b`` and centered second
    moments ``M2_a, M2_b``::

        delta = m_b − m_a
        m     = m_a + delta · n_b / (n_a + n_b)
        M2    = M2_a + M2_b + delta² · n_a n_b / (n_a + n_b)

    Accumulation runs in float64 regardless of the row dtype — the
    diagnostics are observers, never training state.
    """

    def __init__(self, model_size: int) -> None:
        model_size = int(model_size)
        if model_size < 1:
            raise ValueError(f"model_size must be >= 1, got {model_size}")
        self.model_size = model_size
        self.count = 0
        self._mean = np.zeros(model_size, dtype=np.float64)
        self._m2 = np.zeros(model_size, dtype=np.float64)

    def _merge(self, mean_b: np.ndarray, m2_b, count_b: int) -> None:
        if count_b <= 0:
            return
        if self.count == 0:
            self.count = int(count_b)
            self._mean = np.array(mean_b, dtype=np.float64, copy=True)
            self._m2 = (
                np.zeros(self.model_size, dtype=np.float64)
                if m2_b is None
                else np.array(m2_b, dtype=np.float64, copy=True)
            )
            return
        total = self.count + count_b
        delta = mean_b - self._mean
        self._mean += delta * (count_b / total)
        self._m2 += delta * delta * (self.count * count_b / total)
        if m2_b is not None:
            self._m2 += m2_b
        self.count = total

    def add_rows(self, rows: np.ndarray) -> None:
        """Fold a ``(k, N)`` block of client rows."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != self.model_size:
            raise ValueError(
                f"rows have {rows.shape[1]} coordinates, expected "
                f"{self.model_size}"
            )
        k = rows.shape[0]
        if k == 0:
            return
        mean_b = rows.mean(axis=0)
        m2_b = np.square(rows - mean_b).sum(axis=0)
        self._merge(mean_b, m2_b, k)

    def add_mass(self, vector: np.ndarray, count: int) -> None:
        """Fold ``count`` identical copies of ``vector`` in O(N).

        This is the lazy cold mass: every never-touched client sits at
        the arena's cold state, so the group's mean is the vector itself
        and its centered second moment is zero.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        vector = np.asarray(vector, dtype=np.float64).reshape(self.model_size)
        self._merge(vector, None, count)

    @property
    def mean(self) -> np.ndarray:
        """The consensus model ``x̄`` over all folded clients."""
        return self._mean.copy()

    def consensus_distance(self) -> float:
        """``(1/n) Σᵢ ‖xᵢ − x̄‖²`` — the dense arena formula, streamed."""
        if self.count == 0:
            return 0.0
        return float(self._m2.sum() / self.count)


def arena_consensus(arena, block: int = 256) -> Tuple[np.ndarray, float]:
    """``(mean model, consensus distance)`` over a
    :class:`~repro.nn.sharded.ShardedArena`'s whole enrolment.

    Folds resident slot rows block-wise, then the evicted-row writeback
    store, then the lazy cold mass — one O(N) merge for the
    ``num_clients − touched`` clients that were never materialized.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    stats = StreamingMoments(arena.model_size)
    slots = arena.resident_slots()
    for start in range(0, len(slots), block):
        stats.add_rows(arena.data[slots[start : start + block]])
    stored = arena.stored_rows()
    for start in range(0, len(stored), block):
        stats.add_rows(np.stack(stored[start : start + block]))
    cold_count = arena.num_clients - arena.resident_clients - arena.stored_clients
    stats.add_mass(arena.cold_vector, cold_count)
    return stats.mean, stats.consensus_distance()
