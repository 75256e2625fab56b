"""Arena invariants: view aliasing, optimizer state under views,
bit-identical trajectories between the shipped matrix rounds and the
per-model reference loop, and ``setup`` making arena backing an invariant."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.decentralized import DPSGD
from repro.algorithms.psgd import PSGD, TopKPSGD
from repro.algorithms.saps_psgd import SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import random_uniform_bandwidth
from repro.network.transport import SimulatedNetwork
from repro.nn import MLP
from repro.nn.optim import SGD
from repro.nn import arena as arena_module
from repro.nn.arena import ParameterArena, consensus_fold, shared_arena
from repro.sim import ExperimentConfig, make_workers, run_experiment
from repro.sim.trainer import TrainingWorker
from repro.sim.engine import evaluate_consensus
from repro.utils.rng import spawn_generators

from reference.per_model import REFERENCE, per_worker_compute
from tests.reference.per_worker import PerWorkerTrainer, sgd_step


def make_model(seed=0):
    return MLP(6, [5], 3, rng=seed)


def make_adopted(num_workers=3, seed=0):
    models = [make_model(seed) for _ in range(num_workers)]
    arena = ParameterArena.adopt_models(models)
    return arena, models


# ----------------------------------------------------------------------
# view aliasing
# ----------------------------------------------------------------------
class TestArenaViews:
    def test_layer_views_alias_arena_row(self):
        arena, models = make_adopted()
        model = models[1]
        for param in model.parameters():
            assert param.arena_backed
            assert np.shares_memory(param.data, arena.data[1])

    def test_adoption_preserves_values(self):
        model = make_model(seed=4)
        before = model.get_flat_params().copy()
        arena = ParameterArena.adopt_models([model])
        np.testing.assert_array_equal(arena.data[0], before)

    def test_get_flat_params_is_zero_copy(self):
        arena, models = make_adopted()
        flat = models[0].get_flat_params()
        assert flat.base is arena.data or np.shares_memory(flat, arena.data[0])

    def test_in_place_parameter_mutation_visible_in_flat_params(self):
        arena, models = make_adopted()
        param = models[2].parameters()[0]
        param.data[...] = 42.0
        flat = models[2].get_flat_params()
        assert np.all(flat[: param.size] == 42.0)

    def test_set_flat_params_writes_through_to_layer_views(self):
        arena, models = make_adopted()
        vector = np.arange(arena.model_size, dtype=np.float64)
        models[0].set_flat_params(vector)
        np.testing.assert_array_equal(arena.data[0], vector)
        specs = models[0].flat_specs()
        for param, spec in zip(models[0].parameters(), specs):
            np.testing.assert_array_equal(
                param.data.ravel(), vector[spec.offset : spec.end]
            )

    def test_set_flat_params_rejects_wrong_size(self):
        _, models = make_adopted()
        with pytest.raises(ValueError):
            models[0].set_flat_params(np.zeros(3))

    def test_rows_are_independent(self):
        arena, models = make_adopted()
        models[0].set_flat_params(np.ones(arena.model_size))
        assert not np.any(arena.data[1] == 1.0)

    def test_grad_views_alias_grad_row(self):
        arena, models = make_adopted()
        model = models[0]
        model.zero_grad()
        for param in model.parameters():
            assert np.shares_memory(param.grad, arena.grads[0])
        assert np.shares_memory(model._flat_grad_view, arena.grads[0])

    def test_grad_none_until_first_use_and_zeroed_in_flat_view(self):
        arena, models = make_adopted()
        model = models[0]
        assert all(p.grad is None for p in model.parameters())
        arena.grads[0, :] = 7.0  # stale garbage must not leak
        model.zero_grad()
        np.testing.assert_array_equal(arena.grads[0], np.zeros(arena.model_size))

    def test_accumulate_grad_in_place(self):
        arena, models = make_adopted()
        param = models[0].parameters()[0]
        param.accumulate_grad(np.ones_like(param.data))
        param.accumulate_grad(np.ones_like(param.data))
        assert np.all(param.grad == 2.0)
        assert np.shares_memory(param.grad, arena.grads[0])

    def test_submodule_set_flat_params_keeps_views_bound(self):
        # A child of an adopted model has no flat view of its own; its
        # parameters must still be written through, never rebound.
        arena, models = make_adopted()
        child = models[0]._modules["layer0"]
        assert child._flat_view is None
        child.set_flat_params(np.ones(sum(p.size for p in child.parameters())))
        for param in child.parameters():
            assert np.shares_memory(param.data, arena.data[0])
            assert np.all(param.data == 1.0)

    def test_adopt_rejects_size_mismatch_and_double_adoption(self):
        arena, models = make_adopted(num_workers=2)
        with pytest.raises(ValueError):
            arena.adopt(0, make_model())  # row taken
        other = ParameterArena(2, models[0].num_parameters())
        with pytest.raises(ValueError):
            other.adopt(0, models[0])  # already bound elsewhere
        small = ParameterArena(1, 3)
        with pytest.raises(ValueError):
            small.adopt(0, make_model())

    def test_shared_arena_detection(self):
        arena, models = make_adopted(num_workers=3)
        assert shared_arena(models) is arena
        assert shared_arena(models[::-1]) is None  # wrong rank order
        assert shared_arena(models[:2]) is None  # wrong worker count
        assert shared_arena([make_model(), make_model()]) is None

    def test_mix_matches_manual_gossip(self):
        arena, models = make_adopted(num_workers=4, seed=9)
        rng = np.random.default_rng(0)
        arena.data[...] = rng.normal(size=arena.data.shape)
        gossip = np.full((4, 4), 0.25)
        expected = gossip @ arena.data.copy()
        arena.mix(gossip)
        np.testing.assert_allclose(arena.data, expected)

    def test_consensus_reductions_match_stacked(self):
        arena, models = make_adopted(num_workers=4)
        rng = np.random.default_rng(1)
        arena.data[...] = rng.normal(size=arena.data.shape)
        stacked = np.stack([m.get_flat_params().copy() for m in models])
        np.testing.assert_array_equal(arena.mean_model(), stacked.mean(axis=0))
        mean = stacked.mean(axis=0)
        expected = float(np.mean(np.sum((stacked - mean) ** 2, axis=1)))
        assert arena.consensus_distance() == expected


class TestConsensusFold:
    """The row-blocked fold is the whole-matrix formula bit for bit, at any
    block budget, and never holds a copy of the matrix."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 60),
        width=st.integers(1, 4_000),
        dtype=st.sampled_from([np.float32, np.float64]),
        budget=st.integers(1, 1 << 21),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_fold_is_the_whole_matrix_formula(
        self, n, width, dtype, budget, seed
    ):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(1e-3, 1e3)
        rows = (scale * rng.normal(size=(n, width))).astype(dtype)
        center = (scale * rng.normal(size=width)).astype(dtype)
        with mock.patch.object(arena_module, "FOLD_BLOCK_BYTES", budget):
            mean, distance = consensus_fold(rows)
            _, centred = consensus_fold(list(rows), center=center)
        whole = rows.mean(axis=0)
        assert mean.dtype == dtype
        np.testing.assert_array_equal(mean, whole)
        assert distance == float(
            np.mean(np.sum((rows - whole) ** 2, axis=1))
        )
        # SampledAsyncFedAvg's distance of resident rows to the server model.
        assert centred == float(np.mean(np.sum((rows - center) ** 2, axis=1)))

    @pytest.mark.parametrize(
        "shape, dtype",
        [((16, 85_002), np.float32), ((1_024, 1_386), np.float64)],
        ids=["topk16-f32", "saps1024-f64"],
    )
    def test_peak_stays_below_one_matrix(self, shape, dtype):
        arena = ParameterArena(*shape, dtype=dtype)
        arena.data[...] = np.random.default_rng(0).normal(size=shape)
        tracemalloc.start()
        try:
            arena.consensus_distance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arena.data.nbytes


# ----------------------------------------------------------------------
# optimizer state under views
# ----------------------------------------------------------------------
class TestOptimizerUnderViews:
    @pytest.mark.parametrize("momentum,nesterov", [(0.0, False), (0.9, False), (0.9, True)])
    def test_sgd_identical_with_and_without_arena(self, momentum, nesterov):
        plain = make_model(seed=3)
        adopted = make_model(seed=3)
        arena = ParameterArena.adopt_models([adopted])
        optimizers = [
            SGD(m.parameters(), lr=0.1, momentum=momentum,
                weight_decay=0.01, nesterov=nesterov)
            for m in (plain, adopted)
        ]
        rng = np.random.default_rng(0)
        for _ in range(5):
            grads = [rng.normal(size=p.data.shape) for p in plain.parameters()]
            for model, optimizer in zip((plain, adopted), optimizers):
                model.zero_grad()
                for param, grad in zip(model.parameters(), grads):
                    param.accumulate_grad(grad)
                sgd_step(optimizer)
        np.testing.assert_array_equal(
            plain.get_flat_params(), adopted.get_flat_params()
        )
        # the update never detached the views
        for param in adopted.parameters():
            assert np.shares_memory(param.data, arena.data[0])


# ----------------------------------------------------------------------
# trajectory equivalence: the shipped matrix rounds vs the per-model
# reference loop (tests/reference/per_model.py)
# ----------------------------------------------------------------------
def _workload(num_workers, seed=5):
    full = make_blobs(
        num_samples=40 * num_workers + 80, num_classes=4, num_features=12,
        rng=seed,
    )
    train, validation = full.split(
        fraction=(40 * num_workers) / (40 * num_workers + 80), rng=seed
    )
    return partition_iid(train, num_workers, rng=seed), validation


def _bare_workers(partitions, config, factory=None):
    """Hand-built workers, models bound to no arena — same shards, seeds
    and hyperparameters as ``make_workers`` would give them."""
    factory = factory or (lambda: MLP(12, [10], 4, rng=11))
    streams = spawn_generators(config.seed, len(partitions))
    return [
        TrainingWorker(
            rank=rank, model=factory(), shard=shard,
            batch_size=config.batch_size, lr=config.lr,
            momentum=config.momentum, rng=stream,
        )
        for rank, (shard, stream) in enumerate(zip(partitions, streams))
    ]


def _run(algorithm, num_workers, rounds=15, momentum=0.9):
    partitions, validation = _workload(num_workers)
    config = ExperimentConfig(
        rounds=rounds, batch_size=8, lr=0.1, momentum=momentum,
        eval_every=5, seed=3,
    )
    network = SimulatedNetwork(
        num_workers, bandwidth=random_uniform_bandwidth(num_workers, rng=0)
    )
    factory = lambda: MLP(12, [10], 4, rng=11)
    return run_experiment(
        algorithm, partitions, validation, factory, config, network=network,
    )


TRACKED_FIELDS = (
    "train_loss", "val_loss", "val_accuracy", "consensus_distance",
    "worker_traffic_mb", "comm_time_s",
)


def assert_identical_histories(result_a, result_b):
    assert len(result_a.history) == len(result_b.history)
    for field in TRACKED_FIELDS:
        series_a = np.array([getattr(r, field) for r in result_a.history])
        series_b = np.array([getattr(r, field) for r in result_b.history])
        np.testing.assert_array_equal(
            series_a, series_b, err_msg=f"{field} diverged"
        )


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (SAPSPSGD, dict(compression_ratio=8.0, base_seed=3)),
        (SAPSPSGD, dict(compression_ratio=8.0, selector="ring", base_seed=3)),
        (PSGD, {}),
    ],
    ids=["saps-adaptive", "saps-ring", "psgd"],
)
def test_trajectories_bit_identical_arena_vs_fallback(cls, kwargs):
    shipped = _run(cls(**kwargs), num_workers=4)
    reference = _run(REFERENCE[cls](**kwargs), num_workers=4)
    assert_identical_histories(shipped, reference)


@pytest.mark.slow
@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (SAPSPSGD, dict(compression_ratio=20.0, base_seed=3)),
        (PSGD, {}),
        (TopKPSGD, dict(compression_ratio=50.0)),
        (DPSGD, {}),
    ],
    ids=["saps", "psgd", "topk", "dpsgd"],
)
def test_trajectories_bit_identical_at_scale(cls, kwargs):
    shipped = _run(cls(**kwargs), num_workers=16, rounds=30)
    reference = _run(REFERENCE[cls](**kwargs), num_workers=16, rounds=30)
    assert_identical_histories(shipped, reference)


def test_reference_loop_also_runs_on_unadopted_models():
    # The reference never touches an arena, so it runs unchanged on
    # plain per-layer models — and still lands on the shipped numbers.
    partitions, _ = _workload(4)
    config = ExperimentConfig(rounds=3, batch_size=8, lr=0.1, seed=3)

    def final_replicas(algorithm, adopt):
        if adopt:
            workers = make_workers(
                lambda: MLP(12, [10], 4, rng=11), partitions, config
            )
        else:
            workers = _bare_workers(partitions, config)
        algorithm.setup(workers, SimulatedNetwork(4), rng=3)
        for round_index in range(3):
            algorithm.run_round(round_index)
        return np.stack([w.get_params() for w in workers])

    shipped = final_replicas(DPSGD(), adopt=True)
    reference = final_replicas(REFERENCE[DPSGD](), adopt=False)
    np.testing.assert_array_equal(shipped, reference)


def test_make_workers_adopts_shared_arena():
    partitions, _ = _workload(4)
    config = ExperimentConfig(rounds=1, batch_size=8)
    workers = make_workers(lambda: MLP(12, [10], 4, rng=1), partitions, config)
    arena = shared_arena([w.model for w in workers])
    assert arena is not None
    assert arena.num_workers == 4


# ----------------------------------------------------------------------
# setup: arena-backed state is an invariant
# ----------------------------------------------------------------------
def test_setup_adopts_bare_workers():
    partitions, _ = _workload(4)
    config = ExperimentConfig(rounds=1, batch_size=8, seed=3)
    workers = _bare_workers(partitions, config)
    assert all(w.model._arena is None for w in workers)
    algorithm = SAPSPSGD(compression_ratio=8.0, base_seed=3)
    algorithm.setup(workers, SimulatedNetwork(4), rng=3)
    assert algorithm.arena is not None
    assert shared_arena([w.model for w in workers]) is algorithm.arena
    assert algorithm.cluster_trainer is not None


def test_setup_adopts_batchnorm_model_onto_the_trainer():
    from repro.data import make_synthetic_images
    from repro.nn.layers import Linear
    from repro.nn.module import Sequential
    from repro.nn.layers import BatchNorm2d, Conv2d, Flatten
    from tests.reference.per_worker import per_worker

    images = make_synthetic_images(
        120, num_classes=4, channels=1, size=8, noise=0.2, rng=0
    )
    partitions = partition_iid(images, 3, rng=0)
    config = ExperimentConfig(rounds=1, batch_size=8, seed=3)
    workers = _bare_workers(
        partitions, config,
        factory=lambda: per_worker(Sequential(
            Conv2d(1, 4, 3, padding=1, rng=1),
            BatchNorm2d(4),
            Flatten(),
            Linear(4 * 8 * 8, 4, rng=1),
        )),
    )
    algorithm = SAPSPSGD(compression_ratio=8.0, base_seed=3)
    algorithm.setup(workers, SimulatedNetwork(3), rng=3)
    assert algorithm.arena is not None
    assert algorithm.cluster_trainer.net is None
    assert np.isfinite(algorithm.run_round(0))


def test_saps_through_the_compute_seam_equals_the_batched_run():
    # The per-worker oracle inside the shipped SAPS must not change a bit
    # in 3 rounds, with the trainer's fused update + gather on one side
    # and the loop + regather on the other.
    partitions, _ = _workload(4)
    config = ExperimentConfig(rounds=3, batch_size=8, lr=0.1, seed=3)

    def run(algorithm):
        workers = _bare_workers(partitions, config)
        algorithm.setup(workers, SimulatedNetwork(4), rng=3)
        losses = [algorithm.run_round(r) for r in range(3)]
        return losses, algorithm.arena.data.copy()

    factory = lambda: SAPSPSGD(compression_ratio=8.0, base_seed=3, local_steps=2)
    batched = factory()
    seam = per_worker_compute(factory())
    batched_losses, batched_replicas = run(batched)
    seam_losses, seam_replicas = run(seam)
    assert isinstance(seam.cluster_trainer, PerWorkerTrainer)
    assert batched_losses == seam_losses
    np.testing.assert_array_equal(batched_replicas, seam_replicas)


@pytest.mark.parametrize("binding", ["out-of-order", "foreign", "partial"])
def test_setup_rejects_workers_bound_outside_rank_order(binding):
    # Every round indexes the replica matrix by rank, so a worker list
    # that is bound but is not rows 0..n-1 of one arena must fail loudly
    # instead of running on the wrong rows.
    partitions, _ = _workload(4)
    config = ExperimentConfig(rounds=1, batch_size=8, seed=3)
    workers = _bare_workers(partitions, config)
    size = workers[0].model_size
    if binding == "out-of-order":
        arena = ParameterArena(4, size)
        for row, worker in zip((3, 2, 1, 0), workers):
            arena.adopt(row, worker.model)
        message = r"worker 0's model is bound to row 3 of a 4-row arena"
    elif binding == "foreign":
        ParameterArena.adopt_models([w.model for w in workers[:2]])
        ParameterArena.adopt_models([w.model for w in workers[2:]])
        message = r"worker 0's model is bound to row 0 of a 2-row arena"
    else:
        ParameterArena(4, size).adopt(2, workers[2].model)
        message = r"worker 2's model is bound to row 2 of a 4-row arena"
    with pytest.raises(ValueError, match=message):
        DPSGD().setup(workers, SimulatedNetwork(4), rng=3)


def test_snapshot_params_is_independent_copy():
    partitions, _ = _workload(4)
    config = ExperimentConfig(rounds=1, batch_size=8)
    workers = make_workers(lambda: MLP(12, [10], 4, rng=1), partitions, config)
    snapshot = workers[0].snapshot_params()
    live = workers[0].get_params()
    assert not np.shares_memory(snapshot, live)
    workers[0].set_params(np.zeros_like(snapshot))
    assert np.any(snapshot != 0.0)


def test_evaluate_consensus_restores_probe_under_arena():
    partitions, validation = _workload(4)
    config = ExperimentConfig(rounds=2, batch_size=8, seed=3)
    workers = make_workers(lambda: MLP(12, [10], 4, rng=1), partitions, config)
    algorithm = SAPSPSGD(compression_ratio=8.0, base_seed=3)
    algorithm.setup(workers, SimulatedNetwork(4), rng=3)
    algorithm.run_round(0)
    before = workers[0].get_params().copy()
    evaluate_consensus(algorithm, validation)
    np.testing.assert_array_equal(workers[0].get_params(), before)
