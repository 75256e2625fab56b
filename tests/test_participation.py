"""Tests for the shared participation/residency layer.

Covers the :class:`~repro.sim.participation.ParticipationContext`
argument checks, the sampled-neighborhood SAPS equivalence properties
(full-coverage sampling bit-identical to full participation;
trajectories independent of arena capacity thanks to eviction
writeback), the AsyncGossip mid-round re-match when a waiting partner
goes down, the ShardedArena pin telemetry, and the streamed consensus
diagnostics against the dense formulas.
"""

import numpy as np
import pytest

from repro.algorithms import (
    AsyncGossip,
    LogisticBlobsTask,
    SampledSAPS,
    SAPSPSGD,
)
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.nn.arena import ParameterArena
from repro.nn.sharded import ShardedArena
from repro.sim.population import ClientPopulation
from repro.sim import (
    ExperimentConfig,
    RenewalPopulation,
    run_event_experiment,
    run_experiment,
)
from repro.sim.participation import ParticipationContext
from repro.theory.streaming import StreamingMoments, arena_consensus
from repro.utils import parallel


@pytest.fixture
def workload():
    full = make_blobs(num_samples=360, num_classes=4, num_features=8, rng=7)
    train, validation = full.split(fraction=280 / 360, rng=7)
    partitions = partition_iid(train, 6, rng=7)
    factory = lambda: MLP(8, [16], 4, rng=7)
    return partitions, validation, factory


def _trajectories(result):
    """History as comparable tuples (nan-safe via repr)."""
    return [
        (record.round_index, repr(record.train_loss), record.val_accuracy)
        for record in result.history
    ]


class TestCheckSupport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParticipationContext(0)
        with pytest.raises(ValueError):
            ParticipationContext(4, sample_size=0)
        with pytest.raises(ValueError):
            ParticipationContext(4, fraction=1.5)
        with pytest.raises(ValueError):
            ParticipationContext(4, population=RenewalPopulation(5))


class TestSampledSAPSEquivalence:
    """The ISSUE's property: full-coverage sampling changes nothing."""

    def run(self, workload, dtype, sampled, threads, seed):
        partitions, validation, factory = workload
        config = ExperimentConfig(
            rounds=5, eval_every=2, lr=0.2, seed=seed, dtype=dtype
        )
        kwargs = {}
        if sampled:
            kwargs = dict(sample_size=6)
        algorithm = SAPSPSGD(
            compression_ratio=5.0, base_seed=seed, **kwargs
        )
        parallel.set_num_threads(threads)
        try:
            return run_experiment(
                algorithm, partitions, validation, factory, config,
                SimulatedNetwork(
                    6, bandwidth=random_uniform_bandwidth(6, rng=seed)
                ),
            )
        finally:
            parallel.set_num_threads(None)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("seed", [11, 29])
    def test_full_coverage_sampling_is_bit_identical(
        self, workload, dtype, threads, seed
    ):
        """sample_size == n with every client up reproduces full participation
        exactly, at any thread count: the participation draw rides its
        own seed substream."""
        full = self.run(workload, dtype, sampled=False, threads=1, seed=seed)
        sampled = self.run(
            workload, dtype, sampled=True, threads=threads, seed=seed
        )
        assert _trajectories(full) == _trajectories(sampled)

    def test_subsampling_changes_only_participants(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=4, eval_every=2, lr=0.2, seed=11)
        algorithm = SAPSPSGD(
            compression_ratio=5.0, base_seed=11, sample_size=3,
        )
        run_experiment(
            algorithm, partitions, validation, factory, config,
            SimulatedNetwork(6),
        )
        assert algorithm.last_participants is not None
        assert 0 < len(algorithm.last_participants) <= 3

    def test_sampled_kwargs_validated(self):
        with pytest.raises(ValueError):
            SAPSPSGD(sample_size=0)
        with pytest.raises(ValueError):
            SAPSPSGD(round_duration=0.0)


class TestSampledSAPSStandalone:
    """The worker-less ShardedArena gossip family at scale."""

    def run(self, capacity, dtype=None, n=1500, rounds=4, population=None):
        task = LogisticBlobsTask(seed=3)
        algorithm = SampledSAPS(
            task, n, sample_size=64, capacity=capacity, dtype=dtype,
            population=population, seed=3,
        )
        losses = [algorithm.run_round(r) for r in range(rounds)]
        return algorithm, losses, algorithm.evaluate()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_capacity_invariance(self, dtype):
        """Writeback-on-eviction makes trajectories independent of
        capacity: the heavily evicting run matches the run that holds the
        whole enrolment resident bit-for-bit (losses and evaluation; the
        streamed consensus fold order differs, so distance only to
        float64 accuracy)."""
        big_algo, big_losses, big_eval = self.run(1500, dtype=dtype)
        small_algo, small_losses, small_eval = self.run(140, dtype=dtype)
        assert big_algo.arena.evictions == 0
        assert small_algo.arena.evictions > 0
        assert big_losses == small_losses
        assert big_eval == small_eval
        assert arena_consensus(small_algo.arena)[1] == pytest.approx(
            arena_consensus(big_algo.arena)[1], rel=1e-9
        )

    def test_learns_and_stays_sharded(self):
        task = LogisticBlobsTask(seed=0)
        algorithm = SampledSAPS(task, 20_000, sample_size=128, seed=0)
        initial = task.evaluate(np.zeros(task.model_size))[1]
        for r in range(12):
            algorithm.run_round(r)
        assert algorithm.evaluate()[1] > initial
        assert algorithm.exchange_count > 0
        dense_bytes = 2 * 20_000 * task.model_size * algorithm.arena.dtype.itemsize
        assert algorithm.arena.resident_bytes() < dense_bytes / 10
        assert algorithm.arena.stats()["peak_pins"] == 128
        assert algorithm.last_participants is not None
        assert len(algorithm.last_participants) == 128

    def test_population_gates_participants(self):
        population = RenewalPopulation(1500, mean_up=2.0, mean_down=8.0, seed=5)
        algorithm, _, _ = self.run(256, population=population)
        assert 0 < len(algorithm.last_participants) <= 64
        for client in algorithm.last_participants:
            assert population.is_up(client, 3 * algorithm.round_duration)

    def test_validation(self):
        task = LogisticBlobsTask()
        with pytest.raises(ValueError):
            SampledSAPS(task, 1)
        with pytest.raises(ValueError):
            SampledSAPS(task, 100, sample_size=200)
        with pytest.raises(ValueError):
            SampledSAPS(task, 100, sample_size=50, capacity=10)
        with pytest.raises(ValueError):
            SampledSAPS(task, 100, compression_ratio=0.5)


class _PartnerOutage(ClientPopulation):
    """Client ``client`` is up only before ``down_at`` (then out for good);
    every other client is always up."""

    def __init__(self, num_clients, client, down_at):
        super().__init__(num_clients)
        self.client = client
        self.down_at = down_at

    def is_up(self, client, time):
        return client != self.client or time < self.down_at

    def next_up(self, client, time):
        if client == self.client and time >= self.down_at:
            return 1e9
        return float(time)


class _ScriptedCompute:
    """Fixed per-worker step time, constant across cycles."""

    def __init__(self, times):
        self.times = times

    def step_time(self, cycle_index, rank, steps=1):
        return self.times[rank] * steps


class TestAsyncGossipRematch:
    def test_downed_waiting_partner_is_pruned_and_rematched(self):
        """Worker 2 enters the waiting pool, goes down, and the next
        arrival must re-match against the remaining up pool — the downed
        peer never appears in a merge."""
        full = make_blobs(num_samples=180, num_classes=4, num_features=8, rng=7)
        train, validation = full.split(fraction=140 / 180, rng=7)
        partitions = partition_iid(train, 3, rng=7)
        factory = lambda: MLP(8, [16], 4, rng=7)
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=11)
        algorithm = AsyncGossip(compression_ratio=5.0, base_seed=11)

        merged_pairs = []
        original_merge = algorithm._merge

        def recording_merge(a, b, indices, now):
            merged_pairs.append((a, b))
            return original_merge(a, b, indices, now)

        algorithm._merge = recording_merge
        # Worker 2 computes fastest (waits first), then drops at t=0.1;
        # workers 0 and 1 finish after the outage and must pair with
        # each other.
        run_event_experiment(
            algorithm, partitions, validation, factory, config,
            SimulatedNetwork(3),
            compute_model=_ScriptedCompute([0.2, 0.3, 0.05]),
            duration=1.0,
            population=_PartnerOutage(3, client=2, down_at=0.1),
        )
        assert merged_pairs, "the up pool should still exchange"
        for a, b in merged_pairs:
            assert 2 not in (a, b), "downed partner must be re-matched away"

    def test_prune_down_without_population_is_identity(self):
        ctx = ParticipationContext(4)
        up, down = ctx.prune_down([3, 1, 2], 5.0)
        assert up == [3, 1, 2] and down == []


class TestPickPeer:
    def test_every_peer_live_is_the_shifted_uniform_draw(self):
        ctx = ParticipationContext(5)
        for live in (None, np.ones(5, dtype=bool)):
            rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
            for rank in (0, 2, 4) * 20:
                expected = int(oracle.integers(4))
                expected += expected >= rank
                assert ctx.pick_peer(rank, rng, 0.0, live) == expected

    def test_a_live_mask_is_one_draw_over_the_live_list(self):
        ctx = ParticipationContext(6)
        live = np.array([True, False, True, True, False, True])
        rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            assert ctx.pick_peer(2, rng, 0.0, live) == [0, 3, 5][
                int(oracle.integers(3))
            ]
        assert ctx.pick_peer(0, rng, 0.0, np.eye(6, dtype=bool)[0]) is None
        assert ctx.pick_peer(0, rng, 0.0) is not None

    def test_population_down_peers_are_rejected_among_the_live(self):
        ctx = ParticipationContext(6, population=_PartnerOutage(6, 3, down_at=1.0))
        live = np.array([True, False, True, True, True, False])
        rng = np.random.default_rng(0)
        drawn = {ctx.pick_peer(0, rng, 2.0, live) for _ in range(200)}
        assert drawn == {2, 4}
        before = {ctx.pick_peer(0, rng, 0.5, live) for _ in range(200)}
        assert before == {2, 3, 4}


class TestPinTelemetry:
    def test_pin_contention_and_peak_pins(self):
        arena = ShardedArena(10, 4, capacity=2)
        arena.acquire([0])
        assert arena.stats()["peak_pins"] == 1
        arena.row(1)  # fills the second slot
        assert arena.pin_contentions == 0
        arena.row(2)  # must skip pinned client 0, evict client 1
        assert arena.pin_contentions == 1
        assert 0 in arena._slot_of and 1 not in arena._slot_of
        arena.acquire([2])
        assert arena.stats()["peak_pins"] == 2
        with pytest.raises(RuntimeError, match="pinned"):
            arena.row(3)  # both slots pinned: nothing evictable
        arena.release([0])
        arena.release([2])
        assert arena.stats()["peak_pins"] == 2  # high-water mark sticks


class TestStreamingConsensus:
    def test_moments_match_numpy(self, rng):
        rows = rng.normal(size=(23, 7))
        stats = StreamingMoments(7)
        for start in range(0, 23, 5):
            stats.add_rows(rows[start : start + 5])
        assert stats.count == 23
        np.testing.assert_allclose(stats.mean, rows.mean(axis=0))
        assert stats.consensus_distance() == pytest.approx(rows.var(axis=0).sum())
        expected = float(
            np.mean(np.sum((rows - rows.mean(axis=0)) ** 2, axis=1))
        )
        assert stats.consensus_distance() == pytest.approx(expected)

    def test_add_mass_equals_repeated_rows(self, rng):
        vector = rng.normal(size=5)
        rows = rng.normal(size=(4, 5))
        lazy = StreamingMoments(5)
        lazy.add_rows(rows)
        lazy.add_mass(vector, 100)
        dense = StreamingMoments(5)
        dense.add_rows(np.vstack([rows, np.tile(vector, (100, 1))]))
        np.testing.assert_allclose(lazy.mean, dense.mean)
        assert lazy.consensus_distance() == pytest.approx(
            dense.consensus_distance()
        )

    def test_arena_consensus_matches_dense_formulas(self, rng):
        """The whole enrolment resident, faulted in out of client order:
        the fold equals the dense arena's reductions over the client
        matrix."""
        arena = ShardedArena(9, 6, capacity=9)
        replicas = ParameterArena(9, 6)
        replicas.data[...] = rng.normal(size=(9, 6))
        for client in rng.permutation(9):
            arena.row(client)[...] = replicas.data[client]
        mean, distance = arena_consensus(arena, block=4)
        np.testing.assert_allclose(mean, replicas.mean_model())
        assert distance == pytest.approx(replicas.consensus_distance())

    def test_arena_consensus_streams_sharded_state(self, rng):
        arena = ShardedArena(60, 6, capacity=8, cold=np.full(6, 0.25))
        for client in [3, 9, 14, 2, 7, 30, 41, 5, 9, 22, 3, 19]:
            arena.row(client)[...] += rng.normal(size=6)
        mean, distance = arena_consensus(arena, block=4)
        replicas = np.stack(
            [arena.peek(c) for c in range(60)]
        ).astype(np.float64)
        np.testing.assert_allclose(mean, replicas.mean(axis=0))
        expected = float(
            np.mean(np.sum((replicas - replicas.mean(axis=0)) ** 2, axis=1))
        )
        assert distance == pytest.approx(expected)
        assert arena.evictions > 0, "the test should exercise writeback"

    def test_empty_and_validation(self):
        stats = StreamingMoments(3)
        assert stats.consensus_distance() == 0.0
        stats.add_mass(np.ones(3), 0)
        assert stats.count == 0
        with pytest.raises(ValueError):
            StreamingMoments(0)
        with pytest.raises(ValueError):
            stats.add_mass(np.ones(3), -1)
        with pytest.raises(ValueError):
            stats.add_rows(np.ones((2, 4)))
