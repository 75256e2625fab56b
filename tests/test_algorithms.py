"""Behavioural tests for all seven distributed algorithms.

Each algorithm is checked for (a) convergence on a small learnable
workload, (b) the traffic accounting Table I predicts, and (c) its
specific invariants (synchronized replicas, consensus preservation,
replica consistency, ...).
"""

import numpy as np
import pytest

from repro.algorithms import (
    DCDPSGD,
    DPSGD,
    AsyncDPSGD,
    AsyncFedAvg,
    AsyncGossip,
    FedAvg,
    LogisticBlobsTask,
    PSGD,
    SAPSPSGD,
    SampledSAPS,
    SparseFedAvg,
    TopKPSGD,
    sampled,
)
from repro.compression.random_mask import generate_mask
from repro.compression.base import BYTES_PER_VALUE
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.network.metrics import MB
from repro.nn import MLP
from repro.sim import (
    EventEngine,
    ExperimentConfig,
    FaultPlan,
    make_workers,
    run_experiment,
)
from repro.utils.rng import derive_seed
from tests.conftest import cut_links


N_WORKERS = 4


def build_setup(seed=0, bandwidth=None, rounds=30):
    full = make_blobs(num_samples=360, num_classes=4, num_features=8, rng=seed)
    train, validation = full.split(fraction=280 / 360, rng=seed)
    partitions = partition_iid(train, N_WORKERS, rng=seed)
    config = ExperimentConfig(
        rounds=rounds, batch_size=16, lr=0.2, eval_every=10, seed=seed
    )
    network = SimulatedNetwork(
        N_WORKERS,
        bandwidth=bandwidth,
        server_bandwidth=float(np.max(bandwidth)) if bandwidth is not None else 5.0,
    )
    factory = lambda: MLP(8, [16], 4, rng=seed)
    return partitions, validation, factory, config, network


ALL_ALGORITHMS = [
    PSGD,
    lambda: TopKPSGD(compression_ratio=50.0),
    lambda: FedAvg(participation=0.5, local_steps=3),
    lambda: SparseFedAvg(participation=0.5, local_steps=3, compression_ratio=20.0),
    DPSGD,
    lambda: DCDPSGD(compression_ratio=4.0),
    lambda: SAPSPSGD(compression_ratio=10.0),
]


@pytest.mark.parametrize(
    "factory",
    [*ALL_ALGORITHMS, AsyncDPSGD, AsyncFedAvg, AsyncGossip],
    ids=[
        "PSGD", "TopKPSGD", "FedAvg", "SparseFedAvg", "DPSGD", "DCDPSGD",
        "SAPSPSGD", "AsyncDPSGD", "AsyncFedAvg", "AsyncGossip",
    ],
)
def test_construction_seeds_no_generator_from_os_entropy(factory, monkeypatch):
    """``setup`` binds every family's generator, so a constructor has no
    use for one: an OS-entropy placeholder would only cost a seeding."""
    unseeded = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        if seed is None:
            unseeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    factory()
    assert unseeded == []


@pytest.mark.parametrize("factory", ALL_ALGORITHMS)
def test_algorithm_learns(factory):
    partitions, validation, model_factory, config, network = build_setup(seed=1)
    result = run_experiment(
        factory(), partitions, validation, model_factory, config, network
    )
    assert result.final_accuracy > 0.8
    # Training never degraded the random-init snapshot.
    assert result.final_accuracy >= result.history[0].val_accuracy


@pytest.mark.parametrize("factory", ALL_ALGORITHMS)
def test_algorithm_deterministic_given_seed(factory):
    def run():
        partitions, validation, model_factory, config, network = build_setup(seed=2)
        return run_experiment(
            factory(), partitions, validation, model_factory, config, network
        )

    first, second = run(), run()
    assert first.final_accuracy == second.final_accuracy
    assert (
        first.history[-1].worker_traffic_mb == second.history[-1].worker_traffic_mb
    )


class TestPSGD:
    def test_workers_stay_synchronized(self):
        partitions, validation, model_factory, config, network = build_setup()
        algorithm = PSGD()
        workers = make_workers(model_factory, partitions, config)
        algorithm.setup(workers, network, rng=0)
        for t in range(5):
            algorithm.run_round(t)
        assert algorithm.consensus_distance() < 1e-20

    def test_traffic_is_2n_values_per_round(self):
        partitions, validation, model_factory, config, network = build_setup()
        algorithm = PSGD()
        workers = make_workers(model_factory, partitions, config)
        algorithm.setup(workers, network, rng=0)
        rounds = 7
        for t in range(rounds):
            algorithm.run_round(t)
        expected = 2 * algorithm.model_size * BYTES_PER_VALUE * rounds / MB
        assert network.meter.worker_bytes(0) / MB == pytest.approx(expected)


class TestTopKPSGD:
    def test_workers_stay_synchronized(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = TopKPSGD(compression_ratio=20.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        for t in range(5):
            algorithm.run_round(t)
        assert algorithm.consensus_distance() < 1e-20

    def test_traffic_linear_in_n(self):
        """Table I: TopK-PSGD worker traffic scales with n (allgather)."""
        partitions, _, model_factory, config, network = build_setup()
        algorithm = TopKPSGD(compression_ratio=20.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        per_payload = algorithm.compressor.k_for(algorithm.model_size) * (4 + 4)
        expected = 2 * (N_WORKERS - 1) * per_payload / MB
        assert network.meter.worker_bytes(0) / MB == pytest.approx(expected)

    def test_error_feedback_buffers_nonzero(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = TopKPSGD(compression_ratio=20.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        # One (n, N) residual matrix.
        assert np.any(algorithm._batch_feedback.residual != 0)


class TestFedAvg:
    def test_selection_count(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = FedAvg(participation=0.5, local_steps=2)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        assert len(algorithm._select()) == 2

    def test_server_traffic_accounted(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = FedAvg(participation=0.5, local_steps=2)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        model_mb = algorithm.model_size * BYTES_PER_VALUE / MB
        assert network.server_traffic_mb() == pytest.approx(2 * 2 * model_mb)

    def test_consensus_model_is_global(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = FedAvg(participation=1.0, local_steps=1)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        np.testing.assert_array_equal(
            algorithm.consensus_model(), algorithm.global_model
        )

    def test_invalid_participation(self):
        with pytest.raises(ValueError):
            FedAvg(participation=0.0)

    @pytest.mark.parametrize("server_bandwidth", [None, 0.5])
    @pytest.mark.parametrize("cls", [FedAvg, SparseFedAvg])
    def test_bills_the_networks_server_link(self, cls, server_bandwidth):
        """The server's link is the network's: an explicit value is
        billed as given, and by default it is the fastest link."""
        partitions, _, model_factory, config, _ = build_setup()
        bandwidth = random_uniform_bandwidth(N_WORKERS, rng=0)
        network = SimulatedNetwork(
            N_WORKERS, bandwidth=bandwidth, server_bandwidth=server_bandwidth
        )
        algorithm = cls(participation=1.0, local_steps=1)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        link = bandwidth.max() if server_bandwidth is None else server_bandwidth
        assert network.total_time_seconds() == pytest.approx(
            network.server_traffic_mb() / link
        )


class TestSparseFedAvg:
    def test_upload_cheaper_than_download(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = SparseFedAvg(
            participation=1.0, local_steps=1, compression_ratio=20.0
        )
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        model_bytes = algorithm.model_size * BYTES_PER_VALUE
        kept = int(np.ceil(algorithm.model_size / 20.0))
        expected = N_WORKERS * (model_bytes + kept * 8) / MB
        assert network.server_traffic_mb() == pytest.approx(expected)

    def test_less_traffic_than_fedavg(self):
        results = {}
        for name, factory in {
            "dense": lambda: FedAvg(participation=1.0, local_steps=2),
            "sparse": lambda: SparseFedAvg(
                participation=1.0, local_steps=2, compression_ratio=50.0
            ),
        }.items():
            partitions, validation, model_factory, config, network = build_setup()
            results[name] = run_experiment(
                factory(), partitions, validation, model_factory, config, network
            )
        assert (
            results["sparse"].history[-1].worker_traffic_mb
            < results["dense"].history[-1].worker_traffic_mb
        )


class TestDPSGD:
    def test_consensus_mean_preserved_by_mixing(self):
        """Doubly stochastic ring mixing keeps the average model equal to
        plain SGD-on-average up to gradient terms; here: with zero
        gradients the mean is exactly preserved."""
        partitions, _, model_factory, config, network = build_setup()
        algorithm = DPSGD()
        workers = make_workers(model_factory, partitions, config)
        algorithm.setup(workers, network, rng=0)
        # Zero the learning rate so only mixing happens.
        for worker in workers:
            worker.optimizer.lr = 0.0
        before = algorithm.consensus_model()
        algorithm.run_round(0)
        np.testing.assert_allclose(algorithm.consensus_model(), before, atol=1e-12)

    def test_mixing_contracts_disagreement(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = DPSGD()
        workers = make_workers(model_factory, partitions, config)
        algorithm.setup(workers, network, rng=0)
        rng = np.random.default_rng(0)
        for worker in workers:
            worker.set_params(rng.normal(size=algorithm.model_size))
            worker.optimizer.lr = 0.0
        before = algorithm.consensus_distance()
        for t in range(10):
            algorithm.run_round(t)
        assert algorithm.consensus_distance() < 0.2 * before

    def test_full_model_traffic(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = DPSGD()
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        model_mb = algorithm.model_size * BYTES_PER_VALUE / MB
        # Each worker receives 2 full models and sends 2 (to its 2 ring
        # neighbours): 4N per round.
        assert network.meter.worker_bytes(0) / MB == pytest.approx(4 * model_mb)


class TestDCDPSGD:
    @staticmethod
    def _against_replicas(n, dtype, ratio):
        from tests.reference.replicas import ReplicaDCDPSGD

        full = make_blobs(num_samples=40 * n, num_classes=4, num_features=6, rng=n)
        partitions = partition_iid(full, n, rng=n)
        config = ExperimentConfig(batch_size=8, lr=0.2, seed=n, dtype=dtype)
        runs = []
        for family in (DCDPSGD, ReplicaDCDPSGD):
            algorithm = family(compression_ratio=ratio)
            network = SimulatedNetwork(n, bandwidth=random_uniform_bandwidth(n, rng=n))
            workers = make_workers(
                lambda: MLP(6, [12], 4, rng=n, dtype=dtype), partitions, config
            )
            algorithm.setup(workers, network, rng=0)
            losses = [algorithm.run_round(t) for t in range(12)]
            runs.append((algorithm, network, losses))
        (ours, our_net, our_losses), (oracle, oracle_net, oracle_losses) = runs
        assert our_losses == oracle_losses
        np.testing.assert_array_equal(ours.arena.data, oracle.arena.data)
        for rank in range(n):
            for holder in (rank, *oracle._ring_neighbors(rank)):
                np.testing.assert_array_equal(
                    oracle.replicas[holder][rank], ours.public[rank]
                )
            assert our_net.meter.worker_bytes(rank) == oracle_net.meter.worker_bytes(rank)
        assert our_net.timer.total_seconds == oracle_net.timer.total_seconds

    def test_replica_consistency_invariant(self):
        """Every holder's copy of worker j's public model stays equal to
        row j of ``X̂`` — all of them integrate the same compressed
        deltas — and the one-matrix rounds equal the 3n-copy oracle's
        bit for bit: losses, arena, traffic and link time."""
        for n in (3, 5, 8):
            for dtype in ("float64", "float32"):
                for ratio in (1.5, 4.0):
                    self._against_replicas(n, dtype, ratio)

    def test_traffic_below_dpsgd(self):
        traffic = {}
        for name, factory in {"dense": DPSGD, "dcd": lambda: DCDPSGD(4.0)}.items():
            partitions, _, model_factory, config, network = build_setup()
            algorithm = factory()
            algorithm.setup(
                make_workers(model_factory, partitions, config), network, rng=0
            )
            algorithm.run_round(0)
            traffic[name] = network.meter.worker_bytes(0) / MB
        assert traffic["dcd"] < traffic["dense"]


class TestSAPSPSGD:
    def test_traffic_matches_2n_over_c(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = SAPSPSGD(compression_ratio=10.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        rounds = 20
        for t in range(rounds):
            algorithm.run_round(t)
        measured = network.meter.mean_worker_traffic_mb()
        expected = 2 * (algorithm.model_size / 10.0) * BYTES_PER_VALUE * rounds / MB
        assert measured == pytest.approx(expected, rel=0.2)

    def test_lowest_traffic_of_all_algorithms(self):
        traffic = {}
        for factory in ALL_ALGORITHMS:
            partitions, validation, model_factory, config, network = build_setup(seed=3)
            algorithm = factory()
            result = run_experiment(
                algorithm, partitions, validation, model_factory, config, network
            )
            traffic[algorithm.name] = result.history[-1].worker_traffic_mb
        assert min(traffic, key=traffic.get) == "SAPS-PSGD"

    def test_coordinator_round_protocol_completes(self):
        partitions, _, model_factory, config, network = build_setup()
        algorithm = SAPSPSGD(compression_ratio=10.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        assert algorithm.coordinator.round_complete()

    def test_round_bandwidths_recorded_with_bandwidth(self):
        bandwidth = random_uniform_bandwidth(N_WORKERS, rng=0)
        partitions, _, model_factory, config, network = build_setup(
            bandwidth=bandwidth
        )
        algorithm = SAPSPSGD(compression_ratio=10.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        for t in range(5):
            algorithm.run_round(t)
        assert len(algorithm.round_bandwidths) == 5
        assert all(b > 0 for b in algorithm.round_bandwidths)

    def test_random_selector_variant(self):
        partitions, validation, model_factory, config, network = build_setup()
        result = run_experiment(
            SAPSPSGD(compression_ratio=10.0, selector="random"),
            partitions, validation, model_factory, config, network,
        )
        assert result.final_accuracy > 0.7

    def test_ring_selector_variant(self):
        partitions, validation, model_factory, config, network = build_setup()
        result = run_experiment(
            SAPSPSGD(compression_ratio=10.0, selector="ring"),
            partitions, validation, model_factory, config, network,
        )
        assert result.final_accuracy > 0.7

    def test_invalid_selector(self):
        with pytest.raises(ValueError):
            SAPSPSGD(selector="bogus")

    def test_mask_sparsity_on_wire(self):
        """Per-exchange payloads must carry ≈N/c values (no indices)."""
        partitions, _, model_factory, config, network = build_setup()
        algorithm = SAPSPSGD(compression_ratio=10.0)
        algorithm.setup(make_workers(model_factory, partitions, config), network, rng=0)
        algorithm.run_round(0)
        expected = algorithm.model_size / 10.0 * BYTES_PER_VALUE
        assert network.meter.size_counts
        for bytes_sent in network.meter.size_counts:
            assert bytes_sent == pytest.approx(expected, rel=0.5)


class TestSetupValidation:
    def test_needs_two_workers(self):
        partitions, _, model_factory, config, network = build_setup()
        workers = make_workers(model_factory, partitions[:1], config)
        with pytest.raises(ValueError):
            PSGD().setup(workers, network)

    def test_network_size_mismatch(self):
        partitions, _, model_factory, config, _ = build_setup()
        workers = make_workers(model_factory, partitions, config)
        with pytest.raises(ValueError):
            PSGD().setup(workers, SimulatedNetwork(N_WORKERS + 1))

    def test_initial_models_synchronized(self):
        partitions, _, model_factory, config, network = build_setup()
        workers = make_workers(model_factory, partitions, config)
        algorithm = PSGD()
        algorithm.setup(workers, network, rng=0)
        reference = workers[0].get_params()
        for worker in workers[1:]:
            np.testing.assert_array_equal(worker.get_params(), reference)


# ---------------------------------------------------------------------------
# Eq. 7, where it runs
# ---------------------------------------------------------------------------
def _bound_workers(n, dtype):
    """``n`` arena-bound MLP workers on blobs, in ``dtype``."""
    full = make_blobs(num_samples=30 * n, num_classes=4, num_features=8, rng=0)
    config = ExperimentConfig(rounds=1, batch_size=16, lr=0.2, seed=0, dtype=dtype)
    return make_workers(
        lambda: MLP(8, [16], 4, rng=0), partition_iid(full, n, rng=0), config
    )


def _random_state(arena, rng):
    """Overwrite the arena with a random pre-state ``X``; returns a copy."""
    arena.data[:] = rng.normal(size=arena.data.shape)
    return arena.data.copy()


def _recording(function, log):
    """``function``, appending each result to ``log``."""

    def wrapper(*args, **kwargs):
        log.append(function(*args, **kwargs))
        return log[-1]

    return wrapper


def _saps_round(dtype, rng, monkeypatch, offline=()):
    """One ``SAPSPSGD.run_round`` at lr = 0 from a random pre-state: seven
    workers (someone is always unmatched), every link of worker 0 down so
    its pair's exchange is lost.  With nobody ``offline`` it is the fused
    gather path, otherwise the offline-subset regather path."""
    n = 7
    workers = _bound_workers(n, dtype)
    events = [f"crash:{rank}@0" for rank in offline]
    events += [f"link_down:0-{peer}@0" for peer in range(1, n)]
    algorithm = SAPSPSGD(
        compression_ratio=5.0, fault_plan=FaultPlan.parse(",".join(events), n)
    )
    algorithm.setup(workers, SimulatedNetwork(n), rng=0)
    assert algorithm.cluster_trainer is not None
    for worker in workers:
        worker.optimizer.lr = 0.0  # the local step is the identity
    plans = []
    monkeypatch.setattr(algorithm, "_plan", _recording(algorithm._plan, plans))
    before = _random_state(algorithm.arena, rng)
    algorithm.run_round(0)
    (plan,) = plans
    assert algorithm.dropped_exchanges == 1 and not set(plan.partners[list(offline)]) - {-1}
    pairs = [pair for pair in plan.matching if 0 not in pair]
    mask = generate_mask(algorithm.model_size, 5.0, plan.mask_seed)
    return before, algorithm.arena.data, np.flatnonzero(mask), pairs


def _async_gossip_merge(dtype, rng, monkeypatch):
    """``AsyncGossip._merge`` of one pair among six bound workers."""
    n = 6
    network = SimulatedNetwork(n)
    algorithm = AsyncGossip(compression_ratio=5.0)
    algorithm.setup(_bound_workers(n, dtype), network, rng=0)
    algorithm.bind(EventEngine(network))
    algorithm.start()
    before = _random_state(algorithm.arena, rng)
    indices = np.flatnonzero(generate_mask(algorithm.model_size, 5.0, 3))
    algorithm._merge(4, 1, indices, 0.0)
    return before, algorithm.arena.data, indices, [(4, 1)]


def _sampled_saps_round(dtype, rng, monkeypatch):
    """One ``SampledSAPS.run_round`` at lr = 0: seven of twelve clients
    drawn, so five stay out and one of the drawn goes unmatched.  Every
    client is resident, faulted in out of id order, so client state is
    read and written through the arena, never by slot."""
    n = 12
    task = LogisticBlobsTask(num_features=6, num_classes=3, seed=0)
    algorithm = SampledSAPS(
        task, n, sample_size=7, capacity=n, compression_ratio=5.0,
        lr=0.0, dtype=dtype, seed=0,
    )
    matchings = []
    monkeypatch.setattr(
        sampled, "_pair_by_caps", _recording(sampled._pair_by_caps, matchings)
    )
    arena = algorithm.arena
    before = rng.normal(size=(n, task.model_size)).astype(dtype)
    for client in rng.permutation(n):
        arena.row(client)[...] = before[client]
    algorithm.run_round(0)
    assert arena.evictions == 0
    after = np.stack([arena.peek(client) for client in range(n)])
    drawn = algorithm.last_participants
    (local_pairs,) = matchings
    pairs = [(drawn[i], drawn[j]) for i, j in local_pairs]
    mask = generate_mask(task.model_size, 5.0, derive_seed(0, "mask", 0))
    return before, after, np.flatnonzero(mask), pairs


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize(
    "exchange",
    [
        _saps_round,
        lambda *args: _saps_round(*args, offline=(2, 5)),
        _async_gossip_merge,
        _sampled_saps_round,
    ],
    ids=["saps-fused", "saps-churn-regather", "async-gossip-merge", "sampled-saps"],
)
def test_masked_exchange_averages_pairs_and_touches_nothing_else(
    exchange, dtype, rng, monkeypatch
):
    """Eq. 7 on the three production exchanges: a matched pair leaves
    agreeing exactly, on the round's mask indices, on ``½(x_a⁰ + x_b⁰)``;
    every other coordinate — unmasked, or of an unmatched, offline, undrawn
    or loss-dropped worker — is bit-equal to the pre-state; and the column
    sums (the population mean Lemma 2 and D-PSGD's analysis rest on) move
    by no more than rounding."""
    before, after, indices, pairs = exchange(dtype, rng, monkeypatch)
    assert after.dtype == np.dtype(dtype)
    assert pairs and 0 < indices.size < before.shape[1]
    assert len({rank for pair in pairs for rank in pair}) < before.shape[0]
    expected = before.copy()
    for a, b in pairs:
        expected[a, indices] = expected[b, indices] = 0.5 * (
            before[a, indices] + before[b, indices]
        )
        np.testing.assert_array_equal(after[a, indices], after[b, indices])
    np.testing.assert_array_equal(after, expected)
    sums = [state.sum(axis=0, dtype=np.float64) for state in (before, after)]
    tolerance = np.finfo(dtype).eps * np.abs(before).sum(axis=0)
    assert np.all(np.abs(sums[1] - sums[0]) <= tolerance)


def run_eight_workers(algorithm, bandwidth, rounds=6):
    full = make_blobs(num_samples=320, num_classes=4, num_features=8, rng=0)
    train, validation = full.split(fraction=0.8, rng=0)
    config = ExperimentConfig(
        rounds=rounds, batch_size=8, lr=0.2, eval_every=rounds, seed=0
    )
    return run_experiment(
        algorithm, partition_iid(train, 8, rng=0), validation,
        lambda: MLP(8, [8], 4, rng=0), config,
        SimulatedNetwork(8, bandwidth=bandwidth),
    )


class TestMissingLinks:
    """0 MB/s is no link (``SimulatedNetwork``'s convention)."""

    @pytest.mark.parametrize("prefer_weighted", [False, True])
    def test_adaptive_saps_runs_around_missing_links(self, prefer_weighted):
        for seed in range(4):
            result = run_eight_workers(
                SAPSPSGD(
                    compression_ratio=10.0, connectivity_gap=3, base_seed=seed,
                    prefer_weighted=prefer_weighted,
                ),
                cut_links(seed),
            )
            assert 0 < result.history[-1].comm_time_s < np.inf

    @pytest.mark.parametrize(
        "factory, cut, message",
        [
            (lambda: SAPSPSGD(2.0, selector="ring"), (0, 1), "worker 0 -> worker 1"),
            (lambda: SAPSPSGD(2.0, selector="random"), None, "worker"),
            (DPSGD, (2, 3), "worker 3 -> worker 2"),
            (DCDPSGD, (2, 3), "worker 2 -> worker 3"),
        ],
        ids=["saps-ring", "saps-random", "d-psgd", "dcd-psgd"],
    )
    def test_bandwidth_blind_baselines_fail_loudly(self, factory, cut, message):
        """A baseline that ignores bandwidth can bill a transfer over a
        missing link; the round stops there, naming it."""
        bandwidth = np.ones((8, 8)) - np.eye(8)
        if cut is None:
            bandwidth[:] = 0.0  # no links at all
        else:
            bandwidth[cut] = bandwidth[cut[::-1]] = 0.0
        with pytest.raises(ValueError, match=rf"round 0: {message}.* has no link"):
            run_eight_workers(factory(), bandwidth)
