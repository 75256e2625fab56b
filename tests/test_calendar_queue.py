"""Calendar queue vs binary-heap oracle: bit-for-bit equivalence.

The engine's only scheduler is the bucketed :class:`CalendarQueue`;
its contract is *exact* (time, push-order) pop order — the same total
order the heap-backed :class:`EventQueue` oracle
(``tests/reference/events.py``) produces.  These tests drive both
through identical randomized schedules (ties, out-of-order pushes,
cancellations, interleaved pops) and whole engine runs, and require
identical observable behaviour, plus the oracle's tombstone-compaction
regression.
"""

import numpy as np
import pytest

from repro.sim.calendar import CalendarQueue
from tests.reference.events import EventQueue


def drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


class TestCalendarBasics:
    def test_fifo_on_tied_timestamps(self):
        q = CalendarQueue()
        for label in range(5):
            q.push(1.0, label)
        assert [q.pop() for _ in range(5)] == [(1.0, i) for i in range(5)]

    def test_orders_across_times(self):
        q = CalendarQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert drain(q) == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_out_of_order_push_into_current_bucket(self):
        q = CalendarQueue()
        for t in np.linspace(0.0, 100.0, 200):
            q.push(float(t), t)
        q.pop()
        # Push earlier than everything still queued but >= the popped time.
        q.push(0.1, "early")
        time, action = q.pop()
        assert (time, action) == (0.1, "early")

    def test_peek_matches_pop(self):
        q = CalendarQueue()
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 50, size=100):
            q.push(float(t), None)
        while q:
            assert q.peek_time() == q.pop()[0]
        assert q.peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            CalendarQueue().pop()

    def test_rejects_bad_times(self):
        q = CalendarQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, None)
        with pytest.raises(ValueError):
            q.push(float("nan"), None)
        with pytest.raises(ValueError):
            q.push(float("inf"), None)

    def test_cancel_removes_entry(self):
        q = CalendarQueue()
        keep = q.push(1.0, "keep")
        drop = q.push(1.0, "drop")
        q.push(2.0, "later")
        q.cancel(drop)
        assert q._live == 2
        assert drain(q) == [(1.0, "keep"), (2.0, "later")]

    def test_push_many_matches_loop(self):
        events = [(float(t % 7), t) for t in range(50)]
        a, b = CalendarQueue(), CalendarQueue()
        a.push_many(events)
        for t, payload in events:
            b.push(t, payload)
        assert drain(a) == drain(b)


def random_schedule(oracle, candidate, rng, steps=400):
    """Drive both queues through one random op sequence, asserting
    identical observable behaviour at every step."""
    entries = []  # (oracle_handle, candidate_handle) of live pushes
    seq = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            # Push: cluster times to force ties, occasionally far future.
            base = float(rng.choice([0.0, 1.0, 1.0, 2.5, rng.uniform(0, 100)]))
            label = seq
            seq += 1
            entries.append(
                (oracle.push(base, label), candidate.push(base, label))
            )
        elif op < 0.7 and entries:
            h_o, h_c = entries.pop(int(rng.integers(len(entries))))
            oracle.cancel(h_o)
            candidate.cancel(h_c)
        elif op < 0.9 and oracle:
            assert oracle.peek_time() == candidate.peek_time()
            assert oracle.pop() == candidate.pop()
        else:
            assert oracle._live == candidate._live
            assert bool(oracle) == bool(candidate)
    while oracle:
        assert candidate
        assert oracle.pop() == candidate.pop()
    assert not candidate


class TestCalendarVsHeapProperty:
    @pytest.mark.parametrize("trial", range(30))
    def test_randomized_equivalence(self, trial):
        rng = np.random.default_rng(1000 + trial)
        random_schedule(EventQueue(), CalendarQueue(), rng)

    def test_heavy_tie_schedule(self):
        rng = np.random.default_rng(7)
        oracle, candidate = EventQueue(), CalendarQueue()
        for step in range(300):
            t = float(step // 50)  # 50-way ties
            oracle.push(t, step)
            candidate.push(t, step)
        while oracle:
            assert oracle.pop() == candidate.pop()

    def test_burst_then_drain_renewal_pattern(self):
        # The sampling-storm shape: standing far-future population plus
        # near-now bursts, popped events rescheduling themselves.
        rng = np.random.default_rng(11)
        oracle, candidate = EventQueue(), CalendarQueue()
        for t in rng.uniform(0, 200, size=500):
            oracle.push(float(t), None)
            candidate.push(float(t), None)
        now = 0.0
        for _ in range(40):
            now += 5.0
            for t in now + rng.uniform(0, 0.5, size=16):
                oracle.push(float(t), "burst")
                candidate.push(float(t), "burst")
            while oracle and oracle.peek_time() <= now:
                t_o, a_o = oracle.pop()
                t_c, a_c = candidate.pop()
                assert (t_o, a_o) == (t_c, a_c)
                if a_o is None:  # population event: renew
                    renew = t_o + float(rng.uniform(100, 200))
                    oracle.push(renew, None)
                    candidate.push(renew, None)
            assert oracle.peek_time() == candidate.peek_time()


class TestEventQueueCompaction:
    def test_tombstones_are_compacted(self):
        q = EventQueue()
        handles = [q.push(float(i), i) for i in range(1000)]
        # Cancel 90%: the heap must shrink, not hoard tombstones.
        for h in handles[100:]:
            q.cancel(h)
        assert q._live == 100
        assert len(q._heap) < 300  # compacted well below the 1000 pushed
        assert [q.pop() for _ in range(100)] == [(float(i), i) for i in range(100)]

    def test_compaction_preserves_order_and_cancellation(self):
        rng = np.random.default_rng(3)
        q = EventQueue()
        oracle = []
        handles = {}
        for i in range(2000):
            t = float(rng.uniform(0, 10))
            handles[i] = q.push(t, i)
            oracle.append((t, i))
        cancelled = set(
            rng.choice(2000, size=1500, replace=False).tolist()
        )
        for i in cancelled:
            q.cancel(handles[i])
        expected = sorted(
            (t, i) for t, i in oracle if i not in cancelled
        )
        assert drain(q) == expected

    def test_small_queues_never_compact(self):
        q = EventQueue()
        handles = [q.push(1.0, i) for i in range(10)]
        for h in handles[1:]:
            q.cancel(h)
        # Below _COMPACT_MIN the heap keeps its tombstones (cheap) but
        # pops stay correct.
        assert q.pop() == (1.0, 0)
        assert not q


class TestEngineSchedulerEquivalence:
    def test_event_experiment_identical_across_schedulers(self):
        from repro.algorithms import AsyncFedAvg
        from repro.data import make_blobs, partition_iid
        from repro.nn import MLP
        from repro.network import SimulatedNetwork
        from repro.sim import (
            ConstantCompute,
            EventEngine,
            ExperimentConfig,
            make_workers,
        )

        def run(queue_factory):
            # run_event_experiment's own steps, spelled out, with the
            # engine's queue swapped before the run.
            full = make_blobs(num_samples=260, num_classes=4,
                              num_features=8, rng=0)
            train, validation = full.split(fraction=0.8, rng=0)
            partitions = partition_iid(train, 4, rng=0)
            config = ExperimentConfig(rounds=10, batch_size=8, seed=0)
            network = SimulatedNetwork(num_workers=4)
            algorithm = AsyncFedAvg(local_steps=2)
            workers = make_workers(
                lambda: MLP(8, [8], 4, rng=0), partitions, config
            )
            algorithm.setup(workers, network, rng=config.seed)
            engine = EventEngine(network, compute_model=ConstantCompute(0.05))
            engine.queue = queue_factory()
            return engine.run(algorithm, validation, 5.0, 1.0)

        a, b = run(CalendarQueue), run(EventQueue)
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            for name in ra.__dataclass_fields__:
                va, vb = getattr(ra, name), getattr(rb, name)
                # Bit-identical trajectories (nan == nan for the pre-loss
                # initial record).
                assert va == vb or (va != va and vb != vb), (name, va, vb)
        assert a.events_processed == b.events_processed
        assert a.staleness == b.staleness
