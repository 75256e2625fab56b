"""ShardedArena: LRU residency, writeback, cold state and pins."""

import numpy as np
import pytest

from repro.nn.arena import ParameterArena
from repro.nn.sharded import ShardedArena


class TestSampledMode:
    def test_eviction_writeback_round_trip(self):
        arena = ShardedArena(50, 8, capacity=4, retain_evicted=True)
        for client in range(6):
            arena.row(client)[...] = client + 1
        # Clients 0 and 1 were evicted (LRU) but written back.
        assert arena.resident_clients == 4
        assert arena.stored_clients == 2
        for client in range(6):
            assert np.all(arena.peek(client) == client + 1)
        # Faulting an evicted client back restores its exact state.
        assert np.all(arena.row(0) == 1.0)
        assert arena.stats()["writebacks"] >= 3

    def test_retain_false_drops_to_cold(self):
        arena = ShardedArena(50, 4, capacity=2, retain_evicted=False)
        arena.set_cold(np.full(4, 7.0))
        arena.row(0)[...] = 1.0
        arena.row(1)[...] = 2.0
        arena.row(2)[...] = 3.0  # evicts 0, dropped
        assert arena.stored_clients == 0
        assert np.all(arena.row(0) == 7.0)  # back to cold state
        assert arena.resident_bytes() == arena.data.nbytes

    def test_lazy_cold_state_for_dormant_clients(self):
        cold = np.arange(5, dtype=np.float64)
        arena = ShardedArena(1000, 5, capacity=3)
        arena.set_cold(cold)
        assert np.all(arena.peek(999) == cold)  # no fault-in
        assert arena.resident_clients == 0
        assert np.all(arena.row(999) == cold)
        assert arena.resident_clients == 1

    def test_pinning_protects_rows(self):
        arena = ShardedArena(20, 4, capacity=3)
        arena.acquire([0, 1])
        arena.row(0)[...] = 42.0
        arena.row(2)
        arena.row(3)  # must evict 2 (only unpinned resident)
        assert np.all(arena.row(0) == 42.0)
        with pytest.raises(RuntimeError, match="pinned"):
            arena.acquire([4, 5])  # 2 pinned + 2 new > capacity 3
        arena.release([0, 1])
        arena.acquire([4, 5])

    def test_all_pinned_faults_loudly(self):
        arena = ShardedArena(10, 4, capacity=2)
        arena.acquire([0, 1])
        with pytest.raises(RuntimeError, match="pinned"):
            arena.row(2)

    def test_nested_pins(self):
        arena = ShardedArena(10, 4, capacity=2)
        arena.acquire([0])
        arena.acquire([0])
        arena.release([0])
        arena.acquire([1])
        # 0 is still pinned (nested), 1 is pinned: no evictable slot.
        with pytest.raises(RuntimeError, match="pinned"):
            arena.row(2)
        arena.release([0])
        arena.row(2)  # 0's last pin gone: now evictable
        with pytest.raises(ValueError):
            arena.release([0])

    def test_resident_bytes_proportional_to_capacity(self):
        small = ShardedArena(100_000, 16, capacity=64, retain_evicted=False)
        for client in range(0, 100_000, 1000):
            small.row(client)[...] = 1.0
        dense_bytes = 100_000 * 16 * small.dtype.itemsize * 2
        assert small.resident_bytes() <= dense_bytes / 100
        assert small.resident_clients <= 64

    def test_dense_only_ops_raise_in_sampled_mode(self):
        """Whole-matrix operations belong to the dense arena; the sharded
        one is not a ParameterArena and has none of them."""
        arena = ShardedArena(10, 4, capacity=10)
        assert not isinstance(arena, ParameterArena)
        for op in ("adopt", "broadcast_row", "mean_model",
                   "consensus_distance", "mix"):
            with pytest.raises(AttributeError):
                getattr(arena, op)

    def test_nested_pin_at_full_pin_load(self):
        """Re-pinning an already-pinned client takes no extra capacity."""
        arena = ShardedArena(10, 4, capacity=1)
        arena.acquire([0])
        assert list(arena.acquire([0])) == [0]
        with pytest.raises(RuntimeError, match="pinned"):
            arena.acquire([1])
        arena.release([0])
        arena.release([0])
        arena.acquire([1])

    def test_release_is_atomic(self):
        """A release naming an unpinned client changes no pin count."""
        arena = ShardedArena(10, 4, capacity=3)
        arena.acquire([0, 1])
        with pytest.raises(ValueError, match="client 5 is not pinned"):
            arena.release([0, 5])
        with pytest.raises(ValueError, match="client 1 is not pinned"):
            arena.release([1, 1])
        assert arena._pinned == {0: 1, 1: 1}
        arena.release([0, 1])
        assert arena._pinned == {}

    def test_capacity_is_required(self):
        with pytest.raises(TypeError):
            ShardedArena(10, 4)
        with pytest.raises(ValueError):
            ShardedArena(10, 4, capacity=0)
        assert ShardedArena(10, 4, capacity=50).capacity == 10

    def test_full_capacity_never_evicts(self):
        """At capacity == enrolment slots go in first-touch order, not by
        client id, and every client stays resident."""
        arena = ShardedArena(6, 3, capacity=6)
        order = [4, 1, 5, 0, 3, 2]
        for value, client in enumerate(order):
            arena.row(client)[...] = value
        assert arena.evictions == 0 and arena.resident_clients == 6
        assert [arena.slot_of(c) for c in order] == list(range(6))
        for value, client in enumerate(order):
            assert np.all(arena.peek(client) == value)

    def test_client_range_checked(self):
        arena = ShardedArena(10, 4, capacity=2)
        with pytest.raises(ValueError):
            arena.row(10)
        with pytest.raises(ValueError):
            arena.peek(-11)
