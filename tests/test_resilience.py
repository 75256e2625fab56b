"""Tests for the recovery half of the fault story: retry policy,
checkpoints, resilience stats, and end-to-end crash/recovery scenarios
on the event engine under all three recovery policies."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import AsyncDPSGD, AsyncFedAvg, AsyncGossip
from repro.analysis import (
    degradation_report,
    render_degradation,
    render_resilience_summary,
    render_worker_resilience,
    resilience_summary,
    worker_resilience_table,
)
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.network.metrics import MB
from repro.nn import MLP
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.policy import BACKOFF_BASE, BACKOFF_FACTOR, JITTER
from repro.resilience import (
    ExchangePolicy,
    ResilienceStats,
    make_recovery_policy,
)
from repro.sim import (
    ConstantCompute,
    EventEngine,
    ExperimentConfig,
    RenewalPopulation,
    run_event_experiment,
)
from repro.sim.faults import FaultEvent, FaultPlan


@pytest.fixture
def workload():
    full = make_blobs(num_samples=260, num_classes=3, num_features=6, rng=11)
    train, validation = full.split(fraction=0.8, rng=11)
    partitions = partition_iid(train, 6, rng=11)
    return partitions, validation, lambda: MLP(6, [8], 3, rng=11)


class TestExchangePolicy:
    def test_backoff_is_deterministic(self):
        policy = ExchangePolicy(seed=5)
        twin = ExchangePolicy(seed=5)
        delays = [policy.backoff_delay(2, a, 17) for a in range(4)]
        assert delays == [twin.backoff_delay(2, a, 17) for a in range(4)]

    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        policy = ExchangePolicy(seed=0)
        for attempt in range(5):
            delay = policy.backoff_delay(0, attempt, 3)
            floor = BACKOFF_BASE * BACKOFF_FACTOR ** attempt
            assert floor <= delay <= floor * (1.0 + JITTER)

    def test_jitter_decorrelates_across_ranks_and_exchanges(self):
        policy = ExchangePolicy(seed=1)
        assert policy.backoff_delay(0, 1, 5) != policy.backoff_delay(1, 1, 5)
        assert policy.backoff_delay(0, 1, 5) != policy.backoff_delay(0, 1, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExchangePolicy(timeout=0.0)
        with pytest.raises(ValueError):
            ExchangePolicy(max_retries=-1)

    def test_make_recovery_policy_names(self):
        assert make_recovery_policy("checkpoint").name == "checkpoint"
        assert make_recovery_policy("peer").name == "peer"
        assert make_recovery_policy("cold").name == "cold"
        with pytest.raises(ValueError, match="unknown recovery policy"):
            make_recovery_policy("prayer")


class TestResilienceStats:
    def test_goodput_defaults_to_one(self):
        assert ResilienceStats(4).goodput == 1.0

    def test_downtime_and_mttr_accounting(self):
        stats = ResilienceStats(4)
        stats.record_crash(1, 2.0)
        stats.record_recovery(1, 5.0)
        stats.record_crash(1, 8.0)
        stats.record_crash(2, 9.0)
        stats.close(horizon=10.0)
        assert stats.worker_downtime_seconds(1) == pytest.approx(5.0)
        assert stats.worker_mttr(1) == pytest.approx(2.5)
        assert stats.worker_downtime_seconds(2) == pytest.approx(1.0)
        assert stats.worker_mttr(0) is None
        assert stats.mean_mttr() == pytest.approx((3.0 + 2.0 + 1.0) / 3)

    def test_restore_staleness(self):
        stats = ResilienceStats(4)
        assert stats.mean_restore_staleness() is None
        stats.record_restore(0, "checkpoint", 2.0)
        stats.record_restore(1, "peer", 0.0)
        assert stats.mean_restore_staleness() == pytest.approx(1.0)


class TestCheckpointStore:
    def test_interval_validated(self):
        with pytest.raises(ValueError, match="positive"):
            CheckpointStore(0.0)

    def test_capture_skips_dead_workers(self):
        class FakeArena:
            data = np.arange(8.0).reshape(4, 2)
            dtype = np.float64

        class FakeAlgorithm:
            arena = FakeArena()
            cluster_trainer = SimpleNamespace(_velocity=None)

        store = CheckpointStore(1.0)
        store.capture(FakeAlgorithm(), np.array([True] * 4), time=1.0)
        FakeArena.data = FakeArena.data + 100.0
        store.capture(
            FakeAlgorithm(), np.array([True, False, True, True]), time=2.0
        )
        assert store.captures == 2 and len(store._snapshots) == 4
        # Worker 1 was dead at the second capture: keeps its t=1 state.
        assert store.latest(1).time == 1.0
        np.testing.assert_array_equal(store.latest(1).params, [2.0, 3.0])
        assert store.latest(0).time == 2.0
        np.testing.assert_array_equal(store.latest(0).params, [100.0, 101.0])


SCENARIO = FaultPlan(
    6,
    [
        FaultEvent(0.5, "link_down", link=(0, 2)),
        FaultEvent(1.0, "crash", worker=1),
        FaultEvent(2.2, "recover", worker=1),
        FaultEvent(2.8, "link_up", link=(0, 2)),
    ],
)


def run_faulty(workload, algorithm_factory, recovery="checkpoint",
               plan=SCENARIO, duration=4.0, timeout=1.0):
    partitions, validation, factory = workload
    config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
    network = SimulatedNetwork(
        6, bandwidth=random_uniform_bandwidth(6, rng=11)
    )
    algorithm = algorithm_factory()
    result = run_event_experiment(
        algorithm, partitions, validation, factory, config, network,
        compute_model=ConstantCompute(0.05), duration=duration,
        fault_plan=plan,
        exchange_policy=ExchangePolicy(timeout=timeout, seed=11),
        recovery=make_recovery_policy(recovery, checkpoint_interval=0.5),
    )
    return algorithm, result


ASYNC_FACTORIES = {
    "gossip": lambda: AsyncGossip(compression_ratio=5.0, base_seed=11),
    "dpsgd": lambda: AsyncDPSGD(),
    "fedavg": lambda: AsyncFedAvg(),
}


class TestFaultyRunsEndToEnd:
    @pytest.mark.parametrize("variant", ["gossip", "fedavg"])
    @pytest.mark.parametrize("recovery", ["checkpoint", "peer", "cold"])
    def test_scenario_completes_under_every_recovery_policy(
        self, workload, variant, recovery
    ):
        _, result = run_faulty(workload, ASYNC_FACTORIES[variant], recovery)
        assert np.isfinite(result.final_accuracy)
        assert result.final_accuracy > 0.4
        stats = result.resilience
        assert stats is not None
        assert stats.crashes == [(1, 1.0)]
        assert stats.recoveries == [(1, 2.2)]
        assert len(stats.restores) == 1
        worker, policy, staleness = stats.restores[0]
        assert worker == 1
        assert staleness >= 0.0
        if recovery == "cold":
            assert policy == "cold"
            assert staleness == pytest.approx(2.2)
        elif recovery == "peer":
            assert policy in ("peer", "cold")  # cold only if no live donor

    @pytest.mark.parametrize("variant", list(ASYNC_FACTORIES))
    def test_seed_determinism_under_faults(self, workload, variant):
        _, first = run_faulty(workload, ASYNC_FACTORIES[variant])
        _, second = run_faulty(workload, ASYNC_FACTORIES[variant])
        assert first.events_processed == second.events_processed
        for a, b in zip(first.history, second.history):
            assert a.time_s == b.time_s
            assert a.val_accuracy == b.val_accuracy
            assert a.worker_traffic_mb == b.worker_traffic_mb
        sa, sb = first.resilience, second.resilience
        assert sa.attempted_exchanges == sb.attempted_exchanges
        assert sa.completed_exchanges == sb.completed_exchanges
        assert sa.retries == sb.retries
        assert sa.give_ups == sb.give_ups
        assert sa.restores == sb.restores

    def test_crash_produces_downtime_and_stats(self, workload):
        _, result = run_faulty(workload, ASYNC_FACTORIES["gossip"])
        stats = result.resilience
        assert stats.worker_downtime_seconds(1) == pytest.approx(1.2)
        assert stats.worker_mttr(1) == pytest.approx(1.2)
        assert 0.0 < stats.goodput <= 1.0
        assert stats.attempted_exchanges >= stats.completed_exchanges

    def test_unreachable_partner_forces_timeouts_and_retries(self, workload):
        # Worker 0 stays alive but every one of its links goes down: it
        # keeps entering the matching pool, so its partners must walk
        # the deadline → backoff → give-up path.
        plan = FaultPlan(
            6,
            [
                FaultEvent(0.1, "link_down", link=(0, peer))
                for peer in range(1, 6)
            ],
        )
        _, result = run_faulty(
            workload, ASYNC_FACTORIES["gossip"], plan=plan,
            timeout=0.3, duration=8.0,
        )
        stats = result.resilience
        assert stats.timeout_exchanges > 0
        assert stats.retries > 0
        assert stats.give_ups > 0
        assert stats.goodput < 1.0

    def test_empty_plan_matches_no_plan(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)

        def run(plan):
            network = SimulatedNetwork(
                6, bandwidth=random_uniform_bandwidth(6, rng=11)
            )
            algorithm = AsyncGossip(compression_ratio=5.0, base_seed=11)
            return run_event_experiment(
                algorithm, partitions, validation, factory, config, network,
                compute_model=ConstantCompute(0.05), duration=2.0,
                fault_plan=plan,
            )

        bare = run(None)
        empty = run(FaultPlan(6))
        assert bare.events_processed == empty.events_processed
        assert empty.resilience is None
        for a, b in zip(bare.history, empty.history):
            assert a.val_accuracy == b.val_accuracy
            assert a.worker_traffic_mb == b.worker_traffic_mb

    def test_dpsgd_draws_only_population_up_peers_under_a_plan(self, workload):
        """The plan is active but idle until 5.9 s; every peer AD-PSGD
        draws must be up in its population model at the draw."""
        partitions, validation, factory = workload
        population = RenewalPopulation(6, mean_up=1.0, mean_down=1.0, seed=3)
        algorithm = AsyncDPSGD()
        draws = {}
        drive = algorithm._drive_exchange

        def spy(driver, partner, num_bytes, index, *args, **kwargs):
            draws.setdefault(index, (partner, algorithm.engine.now))
            drive(driver, partner, num_bytes, index, *args, **kwargs)

        algorithm._drive_exchange = spy
        run_event_experiment(
            algorithm, partitions, validation, factory,
            ExperimentConfig(lr=0.2, seed=11),
            SimulatedNetwork(6, bandwidth=random_uniform_bandwidth(6, rng=11)),
            compute_model=ConstantCompute(0.05), duration=6.0,
            fault_plan=FaultPlan.parse("crash:5@5.9,recover:5@5.95", 6),
            population=population,
        )
        assert len(draws) > 100
        down = [(peer, t) for peer, t in draws.values()
                if not population.is_up(peer, t)]
        assert down == []


class TestStartTracked:
    """``EventEngine.start_tracked`` on its own: plain transfers plus one
    completion without a plan; deadline, in-flight registration and
    crash aborts with one."""

    HALF = MB // 2  # 0.5 s on a 1 MB/s link

    def engine(self, plan=None, timeout=0.8):
        network = SimulatedNetwork(4, bandwidth=np.ones((4, 4)))
        return EventEngine(
            network, fault_plan=plan,
            exchange_policy=ExchangePolicy(timeout=timeout),
        )

    @staticmethod
    def metered(engine):
        meter = engine.network.meter
        return (meter.total_bytes, meter.num_transfers,
                [meter.worker_bytes(w) for w in range(4)])

    @staticmethod
    def idle_plan():
        return FaultPlan.parse("crash:3@100", 4)

    def test_without_a_plan_it_is_plain_transfers_plus_one_completion(self):
        tracked, manual = self.engine(), self.engine()
        for engine in (tracked, manual):
            engine.start_transfer(0.0, 2, 1, self.HALF, 0)
        fired = []
        tracked.start_tracked(
            0.1, ((0, 1), (1, 0)), self.HALF, 3, fired.append
        )
        ends = [
            manual.start_transfer(0.1, 0, 1, self.HALF, 3),
            manual.start_transfer(0.1, 1, 0, self.HALF, 3),
        ]
        assert tracked._link_free == manual._link_free
        assert tracked.trace.totals == manual.trace.totals
        assert self.metered(tracked) == self.metered(manual)
        assert tracked.queue._live == 1 and tracked._inflight == {}
        time, action = tracked.queue.pop()
        assert time == max(end for _, end in ends) == 1.0
        action(time)
        assert fired == [time]

    def test_a_counted_exchange_past_the_deadline_never_starts(self):
        engine = self.engine(self.idle_plan())
        engine.start_transfer(0.0, 0, 2, self.HALF, 0)  # 0 sends until 0.5
        done, aborted = [], []
        engine.start_tracked(
            0.0, ((0, 1), (1, 0)), self.HALF, 1, done.append, aborted.append
        )
        assert engine.resilience.timeout_exchanges == 1
        assert engine._inflight == {}
        assert engine.queue._live == 1
        time, action = engine.queue.pop()
        action(time)
        assert time == 0.8 and aborted == [0.8] and done == []

    def test_an_uncounted_download_past_the_deadline_still_runs(self):
        engine = self.engine(self.idle_plan())
        engine.start_transfer(0.0, 0, 2, self.HALF, 0)
        done = []
        engine.start_tracked(
            0.0, ((0, 3),), 2 * self.HALF, 1, done.append, counted=False
        )
        assert engine.resilience.timeout_exchanges == 0
        assert len(engine._inflight) == 1
        time, action = engine.queue.pop()
        action(time)
        assert done == [1.5] and engine._inflight == {}
        assert engine.resilience.completed_exchanges == 0

    @pytest.mark.parametrize("crashed", [0, 1])
    def test_a_crash_of_either_end_aborts_and_rolls_back(self, crashed):
        engine = self.engine(self.idle_plan(), timeout=5.0)
        engine.start_transfer(0.0, 2, 1, self.HALF, 0)  # 1 receives until 0.5
        before = dict(engine._link_free)
        done, aborted = [], []
        engine.start_tracked(
            0.0, ((0, 1), (1, 0)), self.HALF, 1, done.append, aborted.append
        )
        assert len(engine._inflight) == 1
        # A later transfer stacks on 0's transmit end: that reservation
        # cannot be unwound.
        engine.start_transfer(0.0, 0, 3, self.HALF, 2)
        stacked = {key: engine._link_free[key] for key in (("tx", 0), ("rx", 3))}
        engine.now = 0.3
        engine._on_crash(crashed, 0.3)
        assert aborted == [0.3] and done == []
        assert engine._inflight == {} and engine.queue._live == 0
        assert engine.resilience.aborted_exchanges == 1
        assert engine._link_free == {**before, **stacked}


class TestResilienceReports:
    def test_summary_and_tables_render(self, workload):
        _, result = run_faulty(workload, ASYNC_FACTORIES["gossip"])
        summary = resilience_summary(result.resilience)
        text = render_resilience_summary(summary)
        assert "goodput" in text and "MTTR" in text
        rows = worker_resilience_table(result.resilience, horizon=4.0)
        assert len(rows) == 6
        assert rows[1].downtime_s == pytest.approx(1.2)
        assert rows[1].availability == pytest.approx(1.0 - 1.2 / 4.0)
        assert "availability" in render_worker_resilience(rows)

    def test_degradation_report_against_no_fault_twin(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
        network = SimulatedNetwork(
            6, bandwidth=random_uniform_bandwidth(6, rng=11)
        )
        baseline = run_event_experiment(
            AsyncGossip(compression_ratio=5.0, base_seed=11),
            partitions, validation, factory, config, network,
            compute_model=ConstantCompute(0.05), duration=4.0,
        )
        _, faulty = run_faulty(workload, ASYNC_FACTORIES["gossip"])
        report = degradation_report(faulty, baseline, target_accuracy=0.5)
        assert report.final_accuracy_delta == pytest.approx(
            faulty.final_accuracy - baseline.final_accuracy
        )
        assert "Degradation under faults" in render_degradation(report)
