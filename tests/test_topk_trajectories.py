"""Top-k trajectories, pinned by golden digests.

sha256 over the exact float bits of five TopK-PSGD rounds (arena,
error-feedback residual, per-round losses) and five DCD-PSGD rounds
(arena, losses), which shares the top-k selector, on small blobs at
n = 16.  The expected strings were produced by the argpartition
selector, the dense error-feedback subtract and the dense all-reduce
mean that ``tests/reference/topk.py`` keeps; a change that moves any
float on this path fails here.  The same runs must not depend on the
selector's row-block size or on the thread count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import DCDPSGD, TopKPSGD
from repro.compression import topk
from repro.data import make_blobs, partition_iid
from repro.network.transport import SimulatedNetwork
from repro.nn import MLP
from repro.sim import ExperimentConfig, make_workers
from repro.utils import parallel

N_WORKERS = 16


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def run_digest(family: str, dtype: str) -> str:
    """Five rounds of ``family`` ("topk" or "dcd") at n = 16.

    Eight of the twelve input features are zero, so 192 of the 412
    first-layer weights never get a gradient: TopK-PSGD (k = 103) selects
    by threshold, DCD-PSGD (k = 275) always has fewer than k non-zero
    deltas and takes the argpartition path on every row.
    """
    full = make_blobs(num_samples=N_WORKERS * 24 + 64, num_classes=4,
                      num_features=12, rng=3)
    full.features[:, 4:] = 0.0
    train, _ = full.split(fraction=(N_WORKERS * 24) / len(full), rng=3)
    config = ExperimentConfig(rounds=5, batch_size=8, lr=0.1, seed=3, dtype=dtype)
    workers = make_workers(
        lambda: MLP(12, [24], 4, rng=3, dtype=dtype),
        partition_iid(train, N_WORKERS, rng=3),
        config,
    )
    algorithm = TopKPSGD(4.0) if family == "topk" else DCDPSGD(1.5)
    algorithm.setup(workers, SimulatedNetwork(N_WORKERS), rng=5)
    losses = np.array([algorithm.run_round(r) for r in range(5)], np.float64)
    state = [algorithm.arena.data]
    if family == "topk":
        state.append(algorithm._batch_feedback.residual)
    return _sha256(*state, losses)


#: Produced by the argpartition selector and the dense error feedback /
#: all-reduce mean (``tests/reference/topk.py``).
GOLDEN = {
    ("topk", "float64"): (
        "5905b60c2a5c40fd39e291ef5bd60b083757c64a82f482f7af9eecc3f98c9b0b"
    ),
    ("topk", "float32"): (
        "5adac3af3cbfda3e5cbc8e13406e04d6edb9914c9eb003336125c4ddd75a0b21"
    ),
    ("dcd", "float64"): (
        "12b94eb3a0fb69b67e414dbb6509e0545723af99ef26cf6a1838f494529e2264"
    ),
    ("dcd", "float32"): (
        "1d55dbe6821a9a502d1c8251408d755013cdf388c49eaad84cff0b135ebd3dd1"
    ),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("family", ["topk", "dcd"])
def test_golden_digest(family, dtype):
    assert run_digest(family, dtype) == GOLDEN[(family, dtype)]


@pytest.mark.parametrize("block_rows", [1, 16])
@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("family", ["topk", "dcd"])
def test_block_rows_and_threads_never_show(monkeypatch, family, threads, block_rows):
    monkeypatch.setattr(topk, "TOPK_BLOCK_ROWS", block_rows)
    parallel.set_num_threads(threads)
    try:
        assert run_digest(family, "float32") == GOLDEN[(family, "float32")]
    finally:
        parallel.set_num_threads(None)
