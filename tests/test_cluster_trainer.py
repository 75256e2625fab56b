"""Equivalence suite for the batched cluster-step engine.

The :class:`~repro.sim.cluster.ClusterTrainer` batched local step must
match the per-worker ``TrainingWorker.local_step`` loop exactly: same
RNG streams, same per-(worker, step) losses, parameters equal to ≤ 1 ulp
at float64 (in practice bit-identical — each worker slice runs the same
BLAS kernels).  The per-worker loop is the oracle throughout — and the
production compute path of the models the batched engine declines, so
the end-to-end comparisons run it through the algorithms' own seam
(``per_worker_compute``), arena on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms.decentralized import DCDPSGD, DPSGD
from repro.algorithms.fedavg import FedAvg, SparseFedAvg
from repro.algorithms.psgd import PSGD, TopKPSGD
from repro.algorithms.saps_psgd import SAPSPSGD
from repro.data import Dataset, make_blobs, make_synthetic_images, partition_iid
from repro.network import random_uniform_bandwidth
from repro.network.transport import SimulatedNetwork
from repro.nn.layers import Linear
from repro.nn import MLP, TinyCNN
from repro.nn.module import Sequential
from repro.nn.batched import build_batched_model
from repro.presets import instantiate_preset
from repro.sim import (
    ClusterTrainer,
    ExperimentConfig,
    make_workers,
    run_experiment,
)
from repro.sim.trainer import TrainingWorker
from repro.sim.engine import RoundRecord, evaluate_consensus
from repro.utils import parallel

from reference.per_model import compute_gradient, per_worker_compute
from reference.per_worker import per_worker


NUM_FEATURES = 12
NUM_CLASSES = 4

MODEL_FACTORIES = {
    "mlp": lambda dtype="float64": MLP(
        NUM_FEATURES, [10, 7], NUM_CLASSES, rng=11, dtype=dtype
    ),
    "logistic": lambda dtype="float64": Sequential(
        Linear(NUM_FEATURES, NUM_CLASSES, rng=11, dtype=dtype)
    ),
}


def _workload(num_workers, seed=5):
    full = make_blobs(
        num_samples=40 * num_workers + 80,
        num_classes=NUM_CLASSES,
        num_features=NUM_FEATURES,
        rng=seed,
    )
    train, validation = full.split(
        fraction=(40 * num_workers) / (40 * num_workers + 80), rng=seed
    )
    return partition_iid(train, num_workers, rng=seed), validation


def _make_pair(model_key, num_workers, momentum=0.0, weight_decay=0.0,
               dtype="float64"):
    """Two identically-seeded worker sets: one for the loop oracle, one
    for the batched trainer."""
    partitions, validation = _workload(num_workers)
    config = ExperimentConfig(
        rounds=1, batch_size=8, lr=0.1, momentum=momentum,
        weight_decay=weight_decay, seed=3, dtype=dtype,
    )
    factory = lambda: MODEL_FACTORIES[model_key](dtype)
    loop_workers = make_workers(factory, partitions, config)
    for worker in loop_workers:
        per_worker(worker.model)
    batched_workers = make_workers(factory, partitions, config)
    trainer = ClusterTrainer.build(batched_workers)
    assert trainer is not None
    return loop_workers, batched_workers, trainer, validation


CONV_CHANNELS = 1
CONV_SIZE = 8


def _conv_workload(num_workers, seed=5, channels=CONV_CHANNELS, size=CONV_SIZE):
    full = make_synthetic_images(
        40 * num_workers + 80, num_classes=NUM_CLASSES, channels=channels,
        size=size, noise=0.2, rng=seed,
    )
    train, validation = full.split(
        fraction=(40 * num_workers) / (40 * num_workers + 80), rng=seed
    )
    return partition_iid(train, num_workers, rng=seed), validation


def _make_conv_pair(num_workers, momentum=0.0, weight_decay=0.0,
                    dtype="float64", factory=None):
    """Loop-oracle and batched worker sets over a conv (image) workload."""
    partitions, validation = _conv_workload(num_workers)
    config = ExperimentConfig(
        rounds=1, batch_size=8, lr=0.1, momentum=momentum,
        weight_decay=weight_decay, seed=3, dtype=dtype,
    )
    if factory is None:
        factory = lambda: TinyCNN(
            in_channels=CONV_CHANNELS, image_size=CONV_SIZE,
            num_classes=NUM_CLASSES, width=4, rng=11, dtype=dtype,
        )
    loop_workers = make_workers(factory, partitions, config)
    for worker in loop_workers:
        per_worker(worker.model)
    batched_workers = make_workers(factory, partitions, config)
    trainer = ClusterTrainer.build(batched_workers)
    assert trainer is not None
    return loop_workers, batched_workers, trainer, validation


def _params_matrix(workers):
    return np.stack([worker.snapshot_params() for worker in workers])


def assert_params_close(loop_workers, batched_workers, maxulp=1):
    np.testing.assert_array_max_ulp(
        _params_matrix(loop_workers), _params_matrix(batched_workers),
        maxulp=maxulp,
    )


# ----------------------------------------------------------------------
# construction / gating
# ----------------------------------------------------------------------
class TestBuild:
    @pytest.mark.parametrize("model_key", ["mlp", "logistic"])
    def test_builds_for_linear_models(self, model_key):
        _, _, trainer, _ = _make_pair(model_key, num_workers=3)
        assert trainer.num_workers == 3

    def test_none_without_arena(self):
        # Hand-built workers, models bound to no arena (make_workers
        # always adopts; DistributedAlgorithm.setup would too).
        partitions, _ = _workload(3)
        workers = [
            TrainingWorker(
                rank=rank, model=MODEL_FACTORIES["mlp"](), shard=shard,
                batch_size=8, lr=0.1, rng=rank,
            )
            for rank, shard in enumerate(partitions)
        ]
        assert ClusterTrainer.build(workers) is None

    def test_builds_for_conv_models(self):
        _, _, trainer, _ = _make_conv_pair(num_workers=3)
        assert trainer.num_workers == 3

    def test_none_for_batchnorm_models(self):
        from repro.nn.layers import Linear
        from repro.nn.module import Sequential
        from repro.nn.layers import BatchNorm2d, Conv2d, Flatten

        full = make_synthetic_images(
            120, num_classes=4, channels=1, size=8, noise=0.2, rng=0
        )
        partitions = partition_iid(full, 3, rng=0)
        config = ExperimentConfig(rounds=1, batch_size=8)
        workers = make_workers(
            lambda: Sequential(
                Conv2d(1, 4, 3, padding=1, rng=1),
                BatchNorm2d(4),
                Flatten(),
                Linear(4 * 8 * 8, 4, rng=1),
            ),
            partitions, config,
        )
        assert ClusterTrainer.build(workers) is None

    def test_none_for_heterogeneous_batch_sizes(self):
        loop_workers, _, _, _ = _make_pair("mlp", num_workers=3)
        loop_workers[1].loader.batch_size = 4
        assert ClusterTrainer.build(loop_workers) is None

    def test_none_for_heterogeneous_optimizers(self):
        loop_workers, _, _, _ = _make_pair("mlp", num_workers=3)
        loop_workers[2].optimizer.momentum = 0.5
        assert ClusterTrainer.build(loop_workers) is None

    def test_none_for_existing_momentum_state(self):
        partitions, _ = _workload(3)
        config = ExperimentConfig(rounds=1, batch_size=8, momentum=0.9, seed=3)
        workers = make_workers(
            lambda: MODEL_FACTORIES["mlp"](), partitions, config
        )
        workers[0].local_step()  # populates per-parameter velocities
        assert ClusterTrainer.build(workers) is None

    def test_rejects_duplicate_ranks(self):
        _, _, trainer, _ = _make_pair("mlp", num_workers=3)
        with pytest.raises(ValueError):
            trainer.step(ranks=[0, 0])
        with pytest.raises(ValueError):
            trainer.step(ranks=[])

    @pytest.mark.parametrize(
        "ranks,message",
        [
            ([3, -1], "rank -1 out of range for n = 4"),
            ([4], "rank 4 out of range for n = 4"),
            ([1, 2, 1], r"rank 1 repeated \(n = 4\)"),
            ([0.0, 1.0], r"integers, got \[0.0, 1.0\] \(n = 4\)"),
            (np.array([True, False]), r"integers, got .*True.* \(n = 4\)"),
        ],
        ids=["negative-alias", "too-large", "duplicate", "float", "bool"],
    )
    def test_rejects_bad_ranks_before_touching_anything(self, ranks, message):
        """A rank set that is not distinct integers in [0, n) fails with
        the rank and n named: no loss, no step count, no loader draw and
        no row write happen first (``[3, -1]`` used to step worker 3
        twice and write it once; ``[4]`` died in an IndexError)."""
        _, workers, trainer, _ = _make_pair("mlp", num_workers=4)
        states = [w.loader._rng.bit_generator.state for w in workers]
        data = trainer.arena.data.copy()
        for call in (trainer.step, trainer.compute_gradients,
                     lambda r: trainer.batched_steps(2, r)):
            with pytest.raises(ValueError, match=message):
                call(ranks)
        assert [w.steps_taken for w in workers] == [0, 0, 0, 0]
        assert [w.loader._rng.bit_generator.state for w in workers] == states
        np.testing.assert_array_equal(trainer.arena.data, data)

    def test_contiguous_ranks_take_the_slice_path(self):
        _, _, trainer, _ = _make_pair("mlp", num_workers=5)
        assert trainer._normalize_ranks([3]) == slice(3, 4)
        assert trainer._normalize_ranks(np.arange(1, 4)) == slice(1, 4)
        assert trainer._normalize_ranks(range(5)) is None
        np.testing.assert_array_equal(trainer._normalize_ranks([2, 1]), [2, 1])
        np.testing.assert_array_equal(trainer._normalize_ranks([0, 2]), [0, 2])

    def test_batched_model_reads_live_arena_views(self):
        _, batched_workers, trainer, _ = _make_pair("mlp", num_workers=3)
        arena = trainer.arena
        net = build_batched_model(arena)
        linear = net.kernels[0]
        assert np.shares_memory(linear.weights, arena.data)
        assert np.shares_memory(linear.weight_grads, arena.grads)


# ----------------------------------------------------------------------
# trajectory equivalence against the per-worker loop
# ----------------------------------------------------------------------
class TestStepEquivalence:
    @pytest.mark.parametrize("model_key", ["mlp", "logistic"])
    @pytest.mark.parametrize("num_workers", [3, 8])
    def test_plain_sgd_trajectory(self, model_key, num_workers):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            model_key, num_workers
        )
        for _ in range(12):
            loop_losses = np.array([w.local_step() for w in loop_workers])
            batched_losses = trainer.step()
            np.testing.assert_array_equal(loop_losses, batched_losses)
            assert_params_close(loop_workers, batched_workers)

    @pytest.mark.parametrize("model_key", ["mlp", "logistic"])
    def test_momentum_weight_decay_trajectory(self, model_key):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            model_key, num_workers=3, momentum=0.9, weight_decay=1e-3
        )
        for _ in range(12):
            loop_losses = np.array([w.local_step() for w in loop_workers])
            batched_losses = trainer.step()
            np.testing.assert_array_equal(loop_losses, batched_losses)
        assert_params_close(loop_workers, batched_workers)

    def test_batched_steps_loss_matrix_is_worker_major(self):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            "mlp", num_workers=3
        )
        k = 4
        loop_losses = [
            worker.local_step() for worker in loop_workers for _ in range(k)
        ]
        batched = trainer.batched_steps(k)
        assert batched.shape == (3, k)
        np.testing.assert_array_equal(np.asarray(loop_losses), batched.ravel())
        assert float(np.mean(loop_losses)) == float(np.mean(batched))
        assert_params_close(loop_workers, batched_workers)

    def test_subset_ranks_trajectory(self):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            "mlp", num_workers=5
        )
        ranks = [0, 2, 4]
        for _ in range(6):
            loop_losses = np.array(
                [loop_workers[r].local_step() for r in ranks]
            )
            batched_losses = trainer.step(ranks=ranks)
            np.testing.assert_array_equal(loop_losses, batched_losses)
        assert_params_close(loop_workers, batched_workers)
        # untouched workers saw no steps and no RNG consumption
        assert loop_workers[1].steps_taken == 0
        assert batched_workers[1].steps_taken == 0

    def test_rng_streams_stay_identical(self):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            "mlp", num_workers=3
        )
        for worker in loop_workers:
            worker.local_step()
        trainer.step()
        # after the same number of draws, the next sample must agree
        for loop_worker, batched_worker in zip(loop_workers, batched_workers):
            loop_batch = loop_worker.loader.sample()
            batched_batch = batched_worker.loader.sample()
            np.testing.assert_array_equal(loop_batch[0], batched_batch[0])
            np.testing.assert_array_equal(loop_batch[1], batched_batch[1])

    def test_bookkeeping_mirrors_loop(self):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            "mlp", num_workers=3
        )
        trainer.batched_steps(3)
        for worker in loop_workers:
            for _ in range(3):
                worker.local_step()
        for loop_worker, batched_worker in zip(loop_workers, batched_workers):
            assert batched_worker.steps_taken == 3
            assert batched_worker.last_loss == loop_worker.last_loss

    def test_float32_trajectory(self):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            "mlp", num_workers=3, dtype="float32"
        )
        for _ in range(8):
            loop_losses = np.array([w.local_step() for w in loop_workers])
            batched_losses = trainer.step()
            np.testing.assert_array_equal(loop_losses, batched_losses)
        assert _params_matrix(batched_workers).dtype == np.float32
        assert_params_close(loop_workers, batched_workers, maxulp=1)


# ----------------------------------------------------------------------
# conv-family equivalence: TinyCNN and Conv/pool/Flatten chains
# ----------------------------------------------------------------------
class TestConvEquivalence:
    @pytest.mark.parametrize("num_workers", [3, 8])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_tiny_cnn_trajectory(self, num_workers, dtype):
        loop_workers, batched_workers, trainer, _ = _make_conv_pair(
            num_workers, dtype=dtype
        )
        for _ in range(8):
            loop_losses = np.array([w.local_step() for w in loop_workers])
            batched_losses = trainer.step()
            np.testing.assert_array_equal(loop_losses, batched_losses)
        assert _params_matrix(batched_workers).dtype == np.dtype(dtype)
        assert_params_close(loop_workers, batched_workers, maxulp=1)

    def test_tiny_cnn_momentum_weight_decay_trajectory(self):
        loop_workers, batched_workers, trainer, _ = _make_conv_pair(
            num_workers=3, momentum=0.9, weight_decay=1e-3
        )
        for _ in range(8):
            loop_losses = np.array([w.local_step() for w in loop_workers])
            np.testing.assert_array_equal(loop_losses, trainer.step())
        assert_params_close(loop_workers, batched_workers)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_padded_pool_flatten_chain_trajectory(self, dtype):
        """A padded, overlapping MaxPool2d and a Flatten replay exactly."""
        from repro.nn.activations import ReLU
        from repro.nn.module import Sequential
        from repro.nn.layers import Conv2d, Flatten, MaxPool2d

        factory = lambda: Sequential(
            Conv2d(CONV_CHANNELS, 4, 3, padding=1, rng=7, dtype=dtype),
            ReLU(),
            MaxPool2d(3, stride=2, padding=1),
            Conv2d(4, 6, 3, bias=False, rng=7, dtype=dtype),
            ReLU(),
            Flatten(),
            Linear(6 * 2 * 2, NUM_CLASSES, rng=7, dtype=dtype),
        )
        loop_workers, batched_workers, trainer, _ = _make_conv_pair(
            num_workers=3, dtype=dtype, factory=factory
        )
        for _ in range(6):
            loop_losses = np.array([w.local_step() for w in loop_workers])
            np.testing.assert_array_equal(loop_losses, trainer.step())
        assert_params_close(loop_workers, batched_workers, maxulp=1)

    def test_conv_subset_ranks_trajectory(self):
        loop_workers, batched_workers, trainer, _ = _make_conv_pair(
            num_workers=5
        )
        ranks = [0, 2, 4]
        for _ in range(4):
            loop_losses = np.array(
                [loop_workers[r].local_step() for r in ranks]
            )
            np.testing.assert_array_equal(loop_losses, trainer.step(ranks=ranks))
        assert_params_close(loop_workers, batched_workers)
        assert loop_workers[1].steps_taken == 0
        assert batched_workers[1].steps_taken == 0

    def test_conv_compute_gradients_matches_loop(self):
        loop_workers, batched_workers, trainer, _ = _make_conv_pair(
            num_workers=3
        )
        loop_losses = []
        loop_grads = []
        for worker in loop_workers:
            loss, grad = compute_gradient(worker)
            loop_losses.append(loss)
            loop_grads.append(grad.copy())
        before = _params_matrix(batched_workers)
        batched_losses = trainer.compute_gradients()
        np.testing.assert_array_equal(np.asarray(loop_losses), batched_losses)
        np.testing.assert_array_equal(np.stack(loop_grads), trainer.arena.grads)
        np.testing.assert_array_equal(before, _params_matrix(batched_workers))

    def test_conv_evaluate_vector_matches_probe(self):
        loop_workers, _, trainer, validation = _make_conv_pair(num_workers=3)
        trainer.batched_steps(2)
        vector = trainer.arena.mean_model()
        probe = loop_workers[0]
        saved = probe.snapshot_params()
        probe.set_params(vector)
        expected = probe.evaluate(validation)
        probe.set_params(saved)
        assert trainer.evaluate_vector(vector, validation) == expected

    def test_conv_end_to_end_saps_bit_identical(self):
        """A full SAPS-PSGD run on TinyCNN: batched vs per-worker compute."""
        partitions, validation = _conv_workload(4)
        factory = lambda: TinyCNN(
            in_channels=CONV_CHANNELS, image_size=CONV_SIZE,
            num_classes=NUM_CLASSES, width=4, rng=11,
        )
        config = ExperimentConfig(
            rounds=6, batch_size=8, lr=0.1, momentum=0.9, eval_every=3,
            seed=3,
        )
        histories = {}
        for compute in ("batched", "loop"):
            algorithm = SAPSPSGD(
                compression_ratio=8.0, base_seed=3, local_steps=2
            )
            if compute == "loop":
                algorithm = per_worker_compute(algorithm)
            result = run_experiment(
                algorithm, partitions, validation, factory, config,
                network=SimulatedNetwork(4),
            )
            assert (algorithm.cluster_trainer is None) == (compute == "loop")
            histories[compute] = result.history
        assert len(histories["batched"]) == len(histories["loop"])
        for field in TRACKED_FIELDS:
            batched_series = np.array(
                [getattr(r, field) for r in histories["batched"]]
            )
            loop_series = np.array(
                [getattr(r, field) for r in histories["loop"]]
            )
            np.testing.assert_array_equal(
                batched_series, loop_series, err_msg=f"{field} diverged"
            )

    @pytest.mark.parametrize("preset", ["mnist-cnn", "cifar10-cnn", "resnet-20"])
    def test_tiny_cnn_presets_build_cluster_trainer(self, preset):
        """The fast (TinyCNN) flavour of every conv preset rides the
        batched engine — ClusterTrainer.build must return a trainer."""
        partitions, _, factory, config = instantiate_preset(
            preset, num_workers=3, fast=True, samples_per_worker=8,
            validation_samples=24,
        )
        workers = make_workers(factory, partitions, config)
        assert ClusterTrainer.build(workers) is not None


# ----------------------------------------------------------------------
# the block partition never shows in a result
# ----------------------------------------------------------------------
def _tiny_cnn_run(monkeypatch, block_rows: int, threads: int):
    partitions, validation, factory, config = instantiate_preset(
        "mnist-cnn", 9, fast=True, samples_per_worker=16,
        validation_samples=40, seed=4,
    )
    config = dataclasses.replace(config, batch_size=4, lr=0.1, momentum=0.9)
    trainer = ClusterTrainer.build(make_workers(factory, partitions, config))
    assert trainer is not None
    per_worker = (
        trainer.arena.model_size * trainer.arena.dtype.itemsize
        + trainer._workspace_bytes
    )
    monkeypatch.setattr(ClusterTrainer, "BLOCK_BYTES", block_rows * per_worker)
    assert trainer._block_rows() == block_rows
    parallel.set_num_threads(threads)
    try:
        losses = trainer.batched_steps(3)
        subset = trainer.step(ranks=[0, 3, 4, 8])
        evaluation = trainer.evaluate_vector(
            trainer.arena.mean_model(), validation, batch_size=16
        )
    finally:
        parallel.set_num_threads(None)
    return trainer.arena.data.copy(), losses, subset, evaluation


@pytest.mark.parametrize("threads", [1, 4])
def test_conv_results_do_not_depend_on_block_rows(monkeypatch, threads):
    data, losses, subset, evaluation = _tiny_cnn_run(monkeypatch, 9, 1)
    for block_rows in (1, 2, 4):  # 9 blocks; 2+2+2+2+1; 4+4+1
        got = _tiny_cnn_run(monkeypatch, block_rows, threads)
        np.testing.assert_array_equal(got[0], data)
        np.testing.assert_array_equal(got[1], losses)
        np.testing.assert_array_equal(got[2], subset)
        assert got[3] == evaluation


class TestComputeGradients:
    @pytest.mark.parametrize("model_key", ["mlp", "logistic"])
    def test_matches_per_worker_compute_gradient(self, model_key):
        loop_workers, batched_workers, trainer, _ = _make_pair(
            model_key, num_workers=3
        )
        loop_grads = []
        loop_losses = []
        for worker in loop_workers:
            loss, grad = compute_gradient(worker)
            loop_losses.append(loss)
            loop_grads.append(grad.copy())
        before = _params_matrix(batched_workers)
        batched_losses = trainer.compute_gradients()
        np.testing.assert_array_equal(np.asarray(loop_losses), batched_losses)
        np.testing.assert_array_equal(np.stack(loop_grads), trainer.arena.grads)
        # gradients only — parameters untouched
        np.testing.assert_array_equal(before, _params_matrix(batched_workers))


# ----------------------------------------------------------------------
# consensus evaluation without snapshot/restore
# ----------------------------------------------------------------------
class TestEvaluateVector:
    def test_matches_probe_evaluate(self):
        loop_workers, batched_workers, trainer, validation = _make_pair(
            "mlp", num_workers=3
        )
        trainer.batched_steps(3)
        vector = trainer.arena.mean_model()
        probe = loop_workers[0]
        saved = probe.snapshot_params()
        probe.set_params(vector)
        expected = probe.evaluate(validation)
        probe.set_params(saved)
        assert trainer.evaluate_vector(vector, validation) == expected

    def test_does_not_disturb_replicas(self):
        _, batched_workers, trainer, validation = _make_pair(
            "mlp", num_workers=3
        )
        trainer.step()
        before = _params_matrix(batched_workers)
        trainer.evaluate_vector(trainer.arena.mean_model(), validation)
        np.testing.assert_array_equal(before, _params_matrix(batched_workers))

    def test_engine_uses_batched_consensus_eval(self):
        partitions, validation = _workload(4)
        config = ExperimentConfig(rounds=1, batch_size=8, seed=3)
        workers = make_workers(
            lambda: MODEL_FACTORIES["mlp"](), partitions, config
        )
        algorithm = PSGD()
        algorithm.setup(workers, SimulatedNetwork(4), rng=3)
        assert algorithm.cluster_trainer is not None
        algorithm.run_round(0)
        before = workers[0].snapshot_params()
        loss, accuracy = evaluate_consensus(algorithm, validation)
        assert 0.0 <= accuracy <= 1.0 and loss > 0
        np.testing.assert_array_equal(workers[0].get_params(), before)


# ----------------------------------------------------------------------
# end-to-end: every algorithm family, batched vs per-worker compute
# (arena on in both — the loop side is the state ResNet-20 runs in)
# ----------------------------------------------------------------------
TRACKED_FIELDS = (
    "train_loss", "val_loss", "val_accuracy", "consensus_distance",
    "worker_traffic_mb", "comm_time_s",
)


def _run_end_to_end(algorithm, momentum=0.9, rounds=10):
    partitions, validation = _workload(4)
    config = ExperimentConfig(
        rounds=rounds, batch_size=8, lr=0.1, momentum=momentum,
        eval_every=5, seed=3,
    )
    network = SimulatedNetwork(
        4, bandwidth=random_uniform_bandwidth(4, rng=0),
        server_bandwidth=2.0,
    )
    factory = lambda: MODEL_FACTORIES["mlp"]()
    return run_experiment(
        algorithm, partitions, validation, factory, config, network=network,
    )


@pytest.mark.parametrize(
    "algorithm_factory",
    [
        lambda: SAPSPSGD(compression_ratio=8.0, base_seed=3, local_steps=2),
        lambda: PSGD(),
        lambda: TopKPSGD(compression_ratio=20.0),
        lambda: DPSGD(),
        lambda: DCDPSGD(compression_ratio=4.0),
        lambda: FedAvg(participation=0.5, local_steps=3),
        lambda: SparseFedAvg(
            participation=0.5, local_steps=3, compression_ratio=20.0
        ),
    ],
    ids=["saps", "psgd", "topk", "dpsgd", "dcd", "fedavg", "s-fedavg"],
)
def test_all_families_bit_identical_to_loop(algorithm_factory):
    batched_algorithm = algorithm_factory()
    loop_algorithm = per_worker_compute(algorithm_factory())
    batched = _run_end_to_end(batched_algorithm)
    loop = _run_end_to_end(loop_algorithm)
    assert batched_algorithm.cluster_trainer is not None
    assert loop_algorithm.cluster_trainer is None
    assert len(batched.history) == len(loop.history)
    for field in TRACKED_FIELDS:
        batched_series = np.array([getattr(r, field) for r in batched.history])
        loop_series = np.array([getattr(r, field) for r in loop.history])
        np.testing.assert_array_equal(
            batched_series, loop_series, err_msg=f"{field} diverged"
        )


# ----------------------------------------------------------------------
# satellite plumbing: comparison knobs, evaluate dtype fix
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_config_validates_local_steps(self):
        with pytest.raises(ValueError):
            ExperimentConfig(local_steps=0)
        assert ExperimentConfig(local_steps=3).local_steps == 3

    def test_engine_applies_config_local_steps(self):
        partitions, validation = _workload(3)
        config = ExperimentConfig(
            rounds=2, batch_size=8, eval_every=2, seed=3, local_steps=2
        )
        algorithm = SAPSPSGD(compression_ratio=8.0, base_seed=3)
        run_experiment(
            algorithm, partitions, validation,
            lambda: MODEL_FACTORIES["mlp"](), config,
        )
        assert algorithm.local_steps == 2
        # the schedule actually ran: 2 rounds x 2 local steps each
        assert all(w.steps_taken == 4 for w in algorithm.workers)

    def test_engine_default_keeps_constructed_local_steps(self):
        partitions, validation = _workload(3)
        config = ExperimentConfig(rounds=2, batch_size=8, eval_every=2, seed=3)
        algorithm = FedAvg(participation=1.0, local_steps=3)
        run_experiment(
            algorithm, partitions, validation,
            lambda: MODEL_FACTORIES["mlp"](), config,
        )
        assert algorithm.local_steps == 3

    def test_suite_threads_saps_local_steps(self):
        from repro.sim import SuiteSettings, paper_algorithm_suite

        suite = paper_algorithm_suite(SuiteSettings(saps_local_steps=3))
        assert suite["SAPS-PSGD"]().local_steps == 3

    def test_run_comparison_threads_dtype_and_local_steps(self):
        from repro.sim import run_comparison

        partitions, validation = _workload(4)
        config = ExperimentConfig(rounds=4, batch_size=8, eval_every=2, seed=3)
        results = run_comparison(
            partitions, validation,
            lambda: MODEL_FACTORIES["mlp"]("float32"),
            config, algorithms=["SAPS-PSGD"],
            dtype="float32", local_steps=2,
        )
        result = results["SAPS-PSGD"]
        assert result.config.dtype == "float32"
        assert result.config.local_steps == 2
        assert config.dtype == "float64" and config.local_steps == 1

    def test_evaluate_casts_dataset_once_against_model_dtype(self):
        partitions, validation = _workload(3)
        config = ExperimentConfig(rounds=1, batch_size=8, dtype="float32")
        workers = make_workers(
            lambda: MODEL_FACTORIES["mlp"]("float32"), partitions, config
        )
        worker = workers[0]
        assert validation.features.dtype == np.float64
        mixed = worker.evaluate(validation)
        cast = worker.evaluate(validation.astype(np.float32))
        assert mixed == cast
