"""Models without a batched plan run on the cluster trainer too.

A model with batch norm and a residual block compiles to no batched
kernel chain, so :class:`~repro.sim.cluster.ClusterTrainer` runs each
row's own module on its slice of the stacked batch and keeps the matrix
update, velocity and counters it keeps for every other model.  Every
family, synchronous and asynchronous, must then match the per-worker
oracle (``reference.per_model.per_worker_compute``) bit for bit, at one
thread and at four with one-row blocks; and the velocity row of such a
model is checkpointed and zeroed like any other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    DCDPSGD,
    DPSGD,
    PSGD,
    SAPSPSGD,
    AsyncFedAvg,
    AsyncGossip,
    FedAvg,
    SparseFedAvg,
    TopKPSGD,
)
from repro.data import make_synthetic_images, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn.activations import ReLU
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d, Linear, MaxPool2d
from repro.nn.models import BasicBlock
from repro.nn.module import Sequential
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.policy import _write_state
from repro.sim import (
    ClusterTrainer,
    EventEngine,
    ExperimentConfig,
    HeterogeneousCompute,
    make_workers,
    run_experiment,
)
from repro.utils import parallel

from reference.per_model import per_worker_compute

N = 3

SYNC = {
    "saps": lambda: SAPSPSGD(compression_ratio=4.0, base_seed=3, local_steps=2),
    "psgd": lambda: PSGD(),
    "topk": lambda: TopKPSGD(compression_ratio=10.0),
    "dpsgd": lambda: DPSGD(),
    "dcd": lambda: DCDPSGD(compression_ratio=4.0),
    "fedavg": lambda: FedAvg(participation=0.5, local_steps=2),
    "s-fedavg": lambda: SparseFedAvg(participation=0.5, local_steps=2,
                                     compression_ratio=10.0),
}
EVENT = {
    "async-gossip": lambda: AsyncGossip(compression_ratio=4.0, base_seed=3),
    "async-fedavg": lambda: AsyncFedAvg(local_steps=2),
}


def batchnorm_residual(dtype):
    return Sequential(
        Conv2d(1, 3, 3, padding=1, rng=7, dtype=dtype),
        BatchNorm2d(3, dtype=dtype),
        ReLU(),
        BasicBlock(3, 3, rng=7, dtype=dtype),
        GlobalAvgPool2d(),
        Linear(3, 4, rng=7, dtype=dtype),
    )


def _workload(dtype, momentum):
    full = make_synthetic_images(N * 24 + 24, num_classes=4, channels=1,
                                 size=6, noise=0.2, rng=5)
    train, validation = full.split(fraction=N * 24 / (N * 24 + 24), rng=5)
    config = ExperimentConfig(
        rounds=4, batch_size=4, lr=0.1, eval_every=2, seed=3, dtype=dtype,
        momentum=momentum, weight_decay=1e-3 if momentum else 0.0,
    )
    network = SimulatedNetwork(N, bandwidth=random_uniform_bandwidth(N, rng=0))
    return partition_iid(train, N, rng=5), validation.astype(dtype), config, network


def _run(family, dtype, momentum, oracle):
    """``(history repr, final replicas)`` of one short run."""
    partitions, validation, config, network = _workload(dtype, momentum)
    factory = lambda: batchnorm_residual(dtype)
    algorithm = {**SYNC, **EVENT}[family]()
    if oracle:
        per_worker_compute(algorithm)
    if family in SYNC:
        result = run_experiment(algorithm, partitions, validation, factory,
                                config, network=network)
    else:
        algorithm.setup(make_workers(factory, partitions, config), network, rng=3)
        engine = EventEngine(network, compute_model=HeterogeneousCompute(
            N, mean_step_time=0.05, spread=4.0, rng=1))
        result = engine.run(algorithm, validation, 0.8, checkpoint_every=0.4)
    assert (algorithm.cluster_trainer.net is None) and result.history
    return repr(result.history), algorithm.arena.data.copy()


@pytest.mark.parametrize("momentum", [0.0, 0.9], ids=["sgd", "momentum-decay"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", [*SYNC, *EVENT])
def test_trainer_equals_the_per_worker_oracle(monkeypatch, family, dtype, momentum):
    want_history, want_rows = _run(family, dtype, momentum, oracle=True)
    # One-row blocks at four threads: rows step concurrently.
    for threads, block_bytes in ((1, ClusterTrainer.BLOCK_BYTES), (4, 1)):
        monkeypatch.setattr(ClusterTrainer, "BLOCK_BYTES", block_bytes)
        parallel.set_num_threads(threads)
        try:
            history, rows = _run(family, dtype, momentum, oracle=False)
        finally:
            parallel.set_num_threads(None)
        assert history == want_history
        assert rows.tobytes() == want_rows.tobytes()


def test_checkpoint_captures_and_cold_restore_zeroes_the_velocity_row():
    partitions, _, config, network = _workload("float64", momentum=0.9)
    algorithm = SAPSPSGD(compression_ratio=4.0, base_seed=3)
    algorithm.setup(make_workers(lambda: batchnorm_residual("float64"),
                                 partitions, config), network, rng=3)
    for round_index in range(2):
        algorithm.run_round(round_index)
    velocity = algorithm.cluster_trainer._velocity
    store = CheckpointStore(1.0)
    store.capture(algorithm, np.ones(N, dtype=bool), time=1.0)
    snapshot = store.latest(1)
    assert snapshot.velocity is not None and np.any(snapshot.velocity != 0)
    np.testing.assert_array_equal(snapshot.velocity, velocity[1])

    _write_state(algorithm, 1, np.zeros(algorithm.model_size))
    assert not velocity[1].any() and velocity[0].any()
    _write_state(algorithm, 1, snapshot.params, snapshot.velocity)
    np.testing.assert_array_equal(velocity[1], snapshot.velocity)


@pytest.mark.parametrize("name", ["MaxPool2d", "Flatten"])
def test_a_layer_only_a_batched_plan_runs_is_refused_at_build(name):
    """It used to build, then raise ``NotImplementedError`` on the first
    step: the layer has no forward of its own."""
    partitions, _, config, _ = _workload("float64", momentum=0.0)
    tail = {"MaxPool2d": lambda: [MaxPool2d(2), GlobalAvgPool2d()],
            "Flatten": lambda: [Flatten(), Linear(108, 4, rng=7)]}[name]
    factory = lambda: Sequential(Conv2d(1, 3, 3, padding=1, rng=7), BatchNorm2d(3), *tail())
    with pytest.raises(ValueError, match=name):
        ClusterTrainer.build(make_workers(factory, partitions, config))
