"""Tests for the discrete-event engine, async variants and contention.

The load-bearing suite of the event subsystem:

* the deterministic event queue;
* link contention: the synchronous timer's max-of-transfers round and
  the event engine's per-endpoint reservation;
* the synchronous round loop's simulated clock against closed forms —
  per-round communication is the timer's ``round_seconds``, per-round
  compute is ``ComputeModel.round_time`` — for SAPS, D-PSGD and FedAvg;
* seed-determinism and convergence of the async variants.
"""

import numpy as np
import pytest

from repro import obs
from repro.algorithms import (
    AsyncDPSGD,
    AsyncFedAvg,
    AsyncGossip,
    DPSGD,
    FedAvg,
    SAPSPSGD,
)
from repro.analysis import (
    render_time_to_accuracy,
    render_worker_timeline,
    time_to_accuracy_table,
    worker_timeline,
)
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.network.metrics import MB, CommunicationTimer
from repro.nn import MLP
from repro.sim import (
    ConstantCompute,
    EventEngine,
    EventQueue,
    ExperimentConfig,
    HeterogeneousCompute,
    run_event_experiment,
    run_experiment,
)
from repro.sim.events import EventTrace
from tests.conftest import settled_growth


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        for time in (3.0, 1.0, 2.0):
            queue.push(time, time)
        assert [queue.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_ties_pop_in_push_order(self):
        queue = EventQueue()
        for tag in ("a", "b", "c"):
            queue.push(1.0, tag)
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and queue._live == 0
        queue.push(0.0, None)
        assert queue and queue._live == 1
        assert queue.peek_time() == 0.0

    def test_rejects_bad_times(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, None)
        with pytest.raises(ValueError):
            queue.push(float("nan"), None)


class TestEventQueueDeterminism:
    """Property-style checks of the FIFO-on-ties and cancellation
    contracts the fault engine leans on."""

    def _reference_order(self, pushes):
        """Stable sort by time = the contractual pop order."""
        return [tag for _, tag in sorted(pushes, key=lambda entry: entry[0])]

    def test_interleaved_push_pop_respects_push_order_on_ties(self):
        rng = np.random.default_rng(1234)
        for trial in range(20):
            queue = EventQueue()
            pushes, popped = [], []
            sequence = 0
            for _ in range(200):
                if queue and rng.random() < 0.4:
                    popped.append(queue.pop()[1])
                else:
                    # Coarse times force many exact ties.
                    time = float(rng.integers(0, 8))
                    queue.push(time, (time, sequence))
                    pushes.append((time, (time, sequence)))
                    sequence += 1
            while queue:
                popped.append(queue.pop()[1])
            assert len(popped) == len(pushes)
            # Global order can differ from one big sort (pops happen
            # mid-stream), but ties must pop in push order: for every
            # time value, the popped sequence numbers are increasing.
            by_time = {}
            for time, seq in popped:
                by_time.setdefault(time, []).append(seq)
            for seqs in by_time.values():
                assert seqs == sorted(seqs)

    def test_drain_after_all_pushes_matches_stable_sort(self):
        rng = np.random.default_rng(99)
        queue = EventQueue()
        pushes = []
        for sequence in range(300):
            time = float(rng.integers(0, 10))
            queue.push(time, sequence)
            pushes.append((time, sequence))
        drained = [queue.pop()[1] for _ in range(len(pushes))]
        assert drained == self._reference_order(pushes)

    def test_cancel_never_reorders_survivors(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            control, queue = EventQueue(), EventQueue()
            handles, pushes = [], []
            for sequence in range(150):
                time = float(rng.integers(0, 6))
                control.push(time, sequence)
                handles.append(queue.push(time, sequence))
                pushes.append((time, sequence))
            doomed = set(
                rng.choice(len(handles), size=40, replace=False).tolist()
            )
            for index in doomed:
                queue.cancel(handles[index])
            expected = [
                tag
                for tag in self._reference_order(pushes)
                if tag not in doomed
            ]
            drained = [queue.pop()[1] for _ in range(queue._live)]
            assert drained == expected
            # The control queue (no cancellations) still pops everything.
            assert control._live == 150

    def test_cancel_updates_len_and_peek(self):
        queue = EventQueue()
        first = queue.push(1.0, "first")
        queue.push(2.0, "second")
        queue.cancel(first)
        assert queue._live == 1
        assert queue.peek_time() == 2.0
        assert queue.pop()[1] == "second"
        assert not queue

    def test_cancel_is_idempotent_and_safe_after_pop(self):
        queue = EventQueue()
        entry = queue.push(1.0, "only")
        queue.cancel(entry)
        queue.cancel(entry)  # double-cancel: no-op
        assert queue._live == 0 and not queue
        fresh = queue.push(1.0, "next")
        assert queue.pop()[1] == "next"
        queue.cancel(fresh)  # cancel after pop: no-op
        assert queue._live == 0


class TestContention:
    def test_off_is_max_of_transfers(self):
        timer = CommunicationTimer()
        timer.add_transfer(2 * MB, 1.0, endpoints=(("tx", 0), ("rx", 1)))
        timer.add_transfer(3 * MB, 1.0, endpoints=(("tx", 0), ("rx", 2)))
        assert timer.finish_round() == pytest.approx(3.0)

    def test_on_serializes_shared_endpoint(self):
        link_free = {}
        reserve = CommunicationTimer.reserve_endpoints
        # Two uploads out of worker 0's transmit end: they serialize.
        assert reserve(0.0, 2.0, (("tx", 0), ("rx", 1)), link_free) == (0.0, 2.0)
        assert reserve(0.0, 3.0, (("tx", 0), ("rx", 2)), link_free) == (2.0, 5.0)

    def test_on_disjoint_endpoints_still_parallel(self):
        link_free = {}
        reserve = CommunicationTimer.reserve_endpoints
        assert reserve(0.0, 2.0, (("tx", 0), ("rx", 1)), link_free) == (0.0, 2.0)
        assert reserve(0.0, 3.0, (("tx", 2), ("rx", 3)), link_free) == (0.0, 3.0)

    def test_undeclared_endpoints_never_contend(self):
        link_free = {}
        reserve = CommunicationTimer.reserve_endpoints
        assert reserve(0.0, 2.0, None, link_free) == (0.0, 2.0)
        assert reserve(0.0, 3.0, None, link_free) == (0.0, 3.0)
        assert link_free == {}

    def test_contention_is_in_order_greedy_schedule(self):
        """The engine's contention algorithm is greedy in-order link
        reservation.  Here transfer 2 waits for tx-0 (until t=3) and
        transfer 3 then waits for rx-2 (until t=5), ending at t=9 — not
        the per-endpoint-sum lower bound of 6."""
        bandwidth = np.full((3, 3), 1.0) - np.eye(3)
        engine = EventEngine(SimulatedNetwork(3, bandwidth=bandwidth), contention=True)
        engine.start_transfer(0.0, 0, 1, int(3 * MB))
        assert engine.start_transfer(0.0, 0, 2, int(2 * MB)) == (
            pytest.approx(3.0), pytest.approx(5.0)
        )
        assert engine.start_transfer(0.0, 1, 2, int(4 * MB))[1] == pytest.approx(9.0)

    def test_last_round_transfers_recorded(self):
        timer = CommunicationTimer()
        timer.add_transfer(2 * MB, 1.0, endpoints=(("tx", 0), ("rx", 1)))
        timer.finish_round()
        assert len(timer.last_round_transfers) == 1
        begin, end, endpoints = timer.last_round_transfers[0]
        assert (begin, end) == (0.0, pytest.approx(2.0))
        assert endpoints == (("tx", 0), ("rx", 1))

    def test_engine_transfer_serializes_on_shared_link_end(self):
        bandwidth = np.full((3, 3), 1.0) - np.eye(3)
        network = SimulatedNetwork(3, bandwidth=bandwidth)
        engine = EventEngine(network, contention=True)
        begin_1, end_1 = engine.start_transfer(0.0, 0, 1, int(2 * MB))
        begin_2, end_2 = engine.start_transfer(0.0, 0, 2, int(2 * MB))
        assert (begin_1, end_1) == (0.0, pytest.approx(2.0))
        # Same transmit end: the second upload waits for the first.
        assert begin_2 == pytest.approx(2.0)
        assert end_2 == pytest.approx(4.0)
        # Opposite direction is a different link end: full duplex.
        begin_3, _ = engine.start_transfer(0.0, 1, 0, int(2 * MB))
        assert begin_3 == 0.0

    def test_engine_no_contention_is_parallel(self):
        bandwidth = np.full((3, 3), 1.0) - np.eye(3)
        network = SimulatedNetwork(3, bandwidth=bandwidth)
        engine = EventEngine(network, contention=False)
        _, end_1 = engine.start_transfer(0.0, 0, 1, int(2 * MB))
        begin_2, _ = engine.start_transfer(0.0, 0, 2, int(2 * MB))
        assert end_1 == pytest.approx(2.0)
        assert begin_2 == 0.0


@pytest.fixture
def workload():
    full = make_blobs(num_samples=260, num_classes=3, num_features=6, rng=11)
    train, validation = full.split(fraction=0.8, rng=11)
    partitions = partition_iid(train, 6, rng=11)
    return partitions, validation, lambda: MLP(6, [8], 3, rng=11)


@pytest.fixture
def telemetry():
    """The round loop keeps per-worker intervals only with telemetry on."""
    obs.start("metrics")
    yield
    obs.stop()


class TestSyncEquivalenceOracle:
    """The synchronous round loop's simulated clock, checked against
    closed forms: two barriers per round, no second implementation."""

    ALGORITHMS = {
        "saps": lambda: SAPSPSGD(compression_ratio=5.0, base_seed=11),
        "d-psgd": lambda: DPSGD(),
        "fedavg": lambda: FedAvg(participation=0.5, local_steps=2),
    }

    @staticmethod
    def network():
        bandwidth = random_uniform_bandwidth(6, rng=11)
        return SimulatedNetwork(
            6, bandwidth=bandwidth, server_bandwidth=float(bandwidth.max()),
        )

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_times_match_sync_engine(self, workload, name):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=8, eval_every=4, lr=0.2, seed=11)
        network = self.network()
        algorithm = self.ALGORITHMS[name]()
        result = run_experiment(
            algorithm, partitions, validation, factory, config, network,
            compute_model=ConstantCompute(0.05),
        )
        rounds = network.timer.round_seconds
        step = 0.05 * getattr(algorithm, "local_steps", 1)
        # Per-round communication is the timer's; compute is the
        # straggler barrier, here a constant.
        assert result.round_comm_seconds == rounds
        assert result.round_compute_seconds == [step] * 8
        assert sum(rounds) == pytest.approx(network.total_time_seconds())
        assert [r.round_index for r in result.history] == [-1, 3, 7]
        for record in result.history:
            done = record.round_index + 1
            assert record.comm_time_s == pytest.approx(sum(rounds[:done]))
            assert record.compute_time_s == pytest.approx(step * done)
            assert record.time_s == record.comm_time_s + record.compute_time_s
        assert result.horizon == result.history[-1].time_s > 0
        # Nothing per-worker is retained with telemetry off.
        assert result.trace is None
        # The clock never touches numerics: without a compute model the
        # same trajectory comes out, and time_s is communication alone.
        plain = run_experiment(
            self.ALGORITHMS[name](), partitions, validation, factory,
            config, self.network(),
        )
        for timed, record in zip(result.history, plain.history):
            assert timed.comm_time_s == record.comm_time_s == record.time_s
            assert timed.val_accuracy == record.val_accuracy
            assert timed.consensus_distance == record.consensus_distance

    def test_collective_comm_attributed_to_participants(
        self, workload, telemetry
    ):
        """PSGD's all-reduce declares no link ends; its time must land
        in every participant's comm column, not in idle."""
        from repro.algorithms import PSGD

        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=4, eval_every=4, lr=0.2, seed=11)
        network = self.network()
        result = run_experiment(
            PSGD(), partitions, validation, factory, config, network,
            compute_model=ConstantCompute(0.05),
        )
        assert [e for _, _, e in network.timer.last_round_transfers] == [None]
        comm = result.trace.busy_seconds("comm")
        assert sum(result.round_comm_seconds) > 0
        np.testing.assert_allclose(comm, sum(result.round_comm_seconds))
        np.testing.assert_allclose(
            result.trace.busy_seconds("compute"), 4 * 0.05
        )

    def test_replay_records_cumulative_local_steps(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=8, eval_every=4, lr=0.2, seed=11)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0, base_seed=11),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        # 6 workers x 1 local step x 0 / 4 / 8 rounds at the eval points.
        assert [r.local_steps for r in result.history] == [0, 24, 48]
        assert result.total_local_steps == 48
        # FedAvg only counts the sampled half, E = 2 steps each.
        result = run_experiment(
            FedAvg(participation=0.5, local_steps=2),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        assert result.total_local_steps == 8 * 3 * 2

    def test_heterogeneous_compute_also_matches(self, workload, telemetry):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=6, eval_every=3, lr=0.2, seed=11)
        compute = HeterogeneousCompute(6, spread=8.0, jitter=0.1, rng=11)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0), partitions, validation,
            factory, config, SimulatedNetwork(6), compute_model=compute,
        )
        times = np.array(
            [[compute.step_time(r, rank) for rank in range(6)] for r in range(6)]
        )
        # The round waits for its straggler; each worker is busy only
        # for its own step.
        assert result.round_compute_seconds == list(times.max(axis=1))
        assert result.history[-1].compute_time_s == pytest.approx(
            times.max(axis=1).sum()
        )
        np.testing.assert_allclose(
            result.trace.busy_seconds("compute"), times.sum(axis=0)
        )


class TestAsyncGossip:
    def run(self, workload, duration=3.0, **kwargs):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
        bandwidth = random_uniform_bandwidth(6, rng=11)
        network = SimulatedNetwork(6, bandwidth=bandwidth)
        algorithm = AsyncGossip(compression_ratio=5.0, base_seed=11, **kwargs)
        result = run_event_experiment(
            algorithm, partitions, validation, factory, config, network,
            compute_model=ConstantCompute(0.05), duration=duration,
        )
        return algorithm, result

    def test_seed_determinism(self, workload):
        _, first = self.run(workload)
        _, second = self.run(workload)
        assert len(first.history) == len(second.history)
        for a, b in zip(first.history, second.history):
            assert a.time_s == b.time_s
            assert a.val_accuracy == b.val_accuracy
            assert a.consensus_distance == b.consensus_distance
            assert a.worker_traffic_mb == b.worker_traffic_mb
            assert a.local_steps == b.local_steps
        assert first.events_processed == second.events_processed
        assert first.trace.totals == second.trace.totals

    def test_reaches_sync_target_accuracy(self, workload):
        """Acceptance criterion: the async variant reaches the sync
        baseline's target accuracy on the quickstart-style workload."""
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=40, eval_every=10, lr=0.2, seed=11)
        sync = run_experiment(
            SAPSPSGD(compression_ratio=5.0, base_seed=11),
            partitions, validation, factory, config, SimulatedNetwork(6),
        )
        target = 0.9 * sync.best_accuracy
        _, result = self.run(workload, duration=4.0)
        assert result.best_accuracy >= target
        assert result.cost_to_reach(target, "time_s") is not None

    def test_exchanges_meter_traffic(self, workload):
        algorithm, result = self.run(workload)
        assert algorithm.exchange_count > 0
        assert result.history[-1].worker_traffic_mb > 0
        assert result.total_local_steps > 0

    def test_checkpoint_times_monotone(self, workload):
        _, result = self.run(workload)
        times = [record.time_s for record in result.history]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(3.0)
        # No duplicate final checkpoint.
        assert len(set(times)) == len(times)

    def test_random_peer_choice_runs(self, workload):
        _, result = self.run(workload, peer_choice="random", duration=1.0)
        assert result.total_local_steps > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncGossip(compression_ratio=0.5)
        with pytest.raises(ValueError):
            AsyncGossip(peer_choice="round-robin")
        with pytest.raises(ValueError):
            AsyncGossip(local_steps=0)


class TestAsyncDPSGD:
    def run(self, workload, duration=2.0):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
        network = SimulatedNetwork(
            6, bandwidth=random_uniform_bandwidth(6, rng=11)
        )
        algorithm = AsyncDPSGD()
        result = run_event_experiment(
            algorithm, partitions, validation, factory, config, network,
            compute_model=ConstantCompute(0.05), duration=duration,
        )
        return algorithm, result

    def test_staleness_tracked(self, workload):
        _, result = self.run(workload)
        assert len(result.staleness) > 0
        assert all(s >= 0 for s in result.staleness)
        # Gradient applications and staleness samples are 1:1.
        assert len(result.staleness) == result.total_local_steps

    def test_seed_determinism(self, workload):
        _, first = self.run(workload)
        _, second = self.run(workload)
        assert first.staleness == second.staleness
        assert [r.val_accuracy for r in first.history] == [
            r.val_accuracy for r in second.history
        ]

    def test_learns(self, workload):
        _, result = self.run(workload, duration=4.0)
        assert result.final_accuracy > result.history[0].val_accuracy
        assert result.final_accuracy > 0.8


class TestAsyncFedAvg:
    def run(self, workload, duration=6.0, **kwargs):
        partitions, validation, factory = workload
        bandwidth = random_uniform_bandwidth(6, rng=11)
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
        network = SimulatedNetwork(
            6, bandwidth=bandwidth, server_bandwidth=float(bandwidth.max())
        )
        algorithm = AsyncFedAvg(**kwargs)
        result = run_event_experiment(
            algorithm, partitions, validation, factory, config, network,
            compute_model=ConstantCompute(0.05), duration=duration,
        )
        return algorithm, result

    def test_server_updates_and_staleness(self, workload):
        algorithm, result = self.run(workload)
        assert algorithm.server_version > 0
        assert len(result.staleness) == algorithm.server_version
        # With 6 workers cycling concurrently, some uploads must be stale.
        assert max(result.staleness) > 0
        assert result.history[-1].mean_staleness > 0

    def test_server_traffic_metered(self, workload):
        _, result = self.run(workload, duration=3.0)
        assert result.history[-1].server_traffic_mb > 0

    def test_learns(self, workload):
        _, result = self.run(workload)
        assert result.final_accuracy > 0.8

    def test_seed_determinism(self, workload):
        _, first = self.run(workload, duration=3.0)
        _, second = self.run(workload, duration=3.0)
        assert first.staleness == second.staleness
        assert [r.val_accuracy for r in first.history] == [
            r.val_accuracy for r in second.history
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncFedAvg(mixing=0.0)
        with pytest.raises(ValueError):
            AsyncFedAvg(staleness_power=-1.0)


class TestEventTrace:
    def test_memory_does_not_grow_with_intervals(self):
        """The trace keeps per-worker totals, not one object per interval
        (which grew this by 10 MB): once all 32 workers have been busy,
        further adds allocate nothing."""
        trace = EventTrace(32)
        growth = settled_growth(
            lambda index: trace.add(index % 32, "compute", 1.0, 1.5)
        )
        assert abs(growth) < 512
        np.testing.assert_array_equal(
            trace.busy_seconds("compute"), 100_000 / 32 * 0.5
        )

    def test_storage_follows_busy_workers_not_enrolment(self):
        trace = EventTrace(1_000_000)
        trace.add(7, "compute", 0.0, 1.0)
        trace.add(999_999, "comm", 0.0, 2.0)
        assert len(trace.totals) == 2
        assert trace.busy_seconds("comm")[999_999] == 2.0

    def test_clips_at_the_run_horizon_as_intervals_arrive(self):
        trace = EventTrace(2)
        trace.horizon = 10.0
        trace.add(0, "compute", 8.0, 12.0)  # mid-compute when time ran out
        trace.add(0, "compute", 11.0, 12.0)  # wholly past the end
        trace.add(1, "comm", 1.0, 2.0)
        assert trace.busy_seconds("compute").tolist() == [5.0, 0.0]
        assert trace.busy_seconds("compute", 10.0).tolist() == [2.0, 0.0]
        assert trace.busy_seconds("comm", 10.0).tolist() == [0.0, 1.0]
        with pytest.raises(ValueError, match="horizon 10.0, not 9.0"):
            trace.busy_seconds("compute", 9.0)


class TestTimelineAnalysis:
    def test_time_to_accuracy_table_mixed_results(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
        sync = run_experiment(
            SAPSPSGD(compression_ratio=5.0), partitions, validation,
            factory, config, SimulatedNetwork(6),
            compute_model=ConstantCompute(0.05),
        )
        algorithm = AsyncGossip(compression_ratio=5.0, base_seed=11)
        event = run_event_experiment(
            algorithm, partitions, validation, factory, config,
            SimulatedNetwork(6, bandwidth=random_uniform_bandwidth(6, rng=11)),
            compute_model=ConstantCompute(0.05), duration=2.0,
        )
        rows = time_to_accuracy_table(
            {"sync": sync, "async": event}, target_accuracy=0.5
        )
        assert {row.algorithm for row in rows} == {"sync", "async"}
        for row in rows:
            if row.reached:
                assert row.time_s is not None and row.time_s >= 0
        rendered = render_time_to_accuracy(rows)
        assert "time to target" in rendered

    def test_worker_timeline_breakdown(self, workload):
        algorithm, result = TestAsyncGossip().run(workload, duration=2.0)
        rows = worker_timeline(result.trace, result.horizon)
        assert len(rows) == 6
        for row in rows:
            assert row.compute_s >= 0 and row.comm_s >= 0 and row.idle_s >= 0
            total = row.compute_s + row.comm_s + row.idle_s
            assert total >= result.horizon - 1e-9 or row.utilization == 1.0
            assert 0.0 <= row.utilization <= 1.0
        assert 0.0 < np.mean([row.utilization for row in rows]) <= 1.0
        assert "utilization" in render_worker_timeline(rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            time_to_accuracy_table({}, target_accuracy=1.5)
        with pytest.raises(ValueError):
            render_time_to_accuracy([])


class TestEngineConfig:
    def test_run_validation(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=5, eval_every=5, lr=0.2, seed=11)
        algorithm = AsyncGossip(compression_ratio=5.0)
        with pytest.raises(ValueError):
            run_event_experiment(
                algorithm, partitions, validation, factory, config,
                duration=0.0,
            )
