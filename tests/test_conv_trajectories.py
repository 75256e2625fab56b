"""Conv-path trajectories, pinned two ways.

* **Golden digests.**  sha256 over the exact float bits of short conv
  runs: SAPS-PSGD on the fast ``mnist-cnn`` preset (arena, per-round
  losses, consensus evaluation) and a padded ``MaxPool2d`` / ``AvgPool2d``
  / ``Dropout`` chain, per-worker and batched.  The expected strings were
  produced by the three-pass gather (``np.pad`` + strided fills +
  transpose copy, the masked pool path, NCHW ``col2im``) that
  ``tests/reference/conv2d.py`` keeps; a change to the window kernels
  that moves any float fails here, in tier-1.
* **Block partition.**  :class:`~repro.sim.cluster.ClusterTrainer` cuts
  the cluster into row blocks by a byte budget; index caches keyed by
  shape and per-block buffers are exactly what could make a result
  depend on that cut.  Uneven 1-, 2- and 4-row blocks must reproduce a
  single block bit for bit at 1 and 4 threads.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD
from repro.data import make_synthetic_images, partition_iid
from repro.network.transport import SimulatedNetwork
from repro.nn import ReLU, Sequential
from repro.nn.layers import AvgPool2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d
from repro.presets import instantiate_preset
from repro.sim import ClusterTrainer, ExperimentConfig, make_workers
from repro.utils import parallel


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def saps_cnn_digest(dtype: str) -> str:
    """Five SAPS-PSGD rounds on the fast mnist-cnn preset at n = 8."""
    partitions, validation, factory, config = instantiate_preset(
        "mnist-cnn", 8, fast=True, samples_per_worker=24,
        validation_samples=40, seed=3, dtype=dtype,
    )
    config = dataclasses.replace(config, batch_size=6, lr=0.1, momentum=0.9)
    workers = make_workers(factory, partitions, config)
    algorithm = SAPSPSGD(compression_ratio=4.0, base_seed=3)
    algorithm.setup(workers, SimulatedNetwork(8), rng=5)
    assert algorithm.cluster_trainer is not None
    losses = [algorithm.run_round(r) for r in range(5)]
    evaluation = algorithm.cluster_trainer.evaluate_vector(
        algorithm.arena.mean_model(), validation, batch_size=16
    )
    return _sha256(
        algorithm.arena.data, np.array(losses + list(evaluation), np.float64)
    )


def pool_chain_digest(dtype: str) -> str:
    """A padded max-pool / avg-pool / dropout chain: the per-worker layers
    on tie-heavy NCHW and channels-last inputs, then three batched steps
    and a consensus evaluation of a conv model built around it."""
    rng = np.random.default_rng(0)
    images = rng.integers(-3, 4, size=(2, 3, 9, 9)).astype(dtype)
    nhwc = np.ascontiguousarray(images.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    parts = []
    for inputs in (images, nhwc):
        chain = [MaxPool2d(3, stride=2, padding=1), AvgPool2d(2), Dropout(0.5, rng=1)]
        out = inputs
        for layer in chain:
            out = layer.forward(out)
        grad = rng.normal(size=out.shape).astype(dtype)
        for layer in reversed(chain):
            grad = layer.backward(grad)
        parts += [out, grad]

    full = make_synthetic_images(
        120, num_classes=4, channels=1, size=8, noise=0.2, rng=5
    )
    train, validation = full.split(fraction=96 / 120, rng=5)
    config = ExperimentConfig(
        rounds=1, batch_size=8, lr=0.1, momentum=0.9, seed=3, dtype=dtype
    )
    factory = lambda: Sequential(
        Conv2d(1, 4, 3, padding=1, rng=7, dtype=dtype),
        ReLU(),
        MaxPool2d(3, stride=2, padding=1),
        Conv2d(4, 6, 3, bias=False, rng=7, dtype=dtype),
        ReLU(),
        AvgPool2d(2, stride=1),
        Flatten(),
        Dropout(0.4, rng=13),
        Linear(6, 4, rng=7, dtype=dtype),
    )
    workers = make_workers(factory, partition_iid(train, 3, rng=5), config)
    trainer = ClusterTrainer.build(workers)
    assert trainer is not None
    losses = trainer.batched_steps(3)
    evaluation = trainer.evaluate_vector(trainer.arena.mean_model(), validation)
    return _sha256(
        *parts, trainer.arena.data, losses, np.array(evaluation, np.float64)
    )


#: Produced by the three-pass gather (the kernels ``tests/reference/
#: conv2d.py`` keeps), before the cached-index gather replaced it.
GOLDEN = {
    ("saps_cnn", "float64"): (
        "5b741d645f12e4d567fb561e338d21d270e23cd78495786dd6724bf6793035ad"
    ),
    ("saps_cnn", "float32"): (
        "4c092970d6cc45c336a7fff853297e50246d7071abfaf5bc000f9c8b4c9a3c7f"
    ),
    ("pool_chain", "float64"): (
        "4f640d9bb5b3efdecadb7203bfea17b212c009f5639c6966183c7f00d773026f"
    ),
    ("pool_chain", "float32"): (
        "5919285dda3b87e5e14c5e10a054eb1dabde531e67aafe64644f9d7f709cbf33"
    ),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_saps_cnn_digest(dtype):
    assert saps_cnn_digest(dtype) == GOLDEN[("saps_cnn", dtype)]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_pool_chain_digest(dtype):
    assert pool_chain_digest(dtype) == GOLDEN[("pool_chain", dtype)]


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
