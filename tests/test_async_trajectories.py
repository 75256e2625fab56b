"""The event engine's families, pinned by golden digests.

sha256 over the exact float bits of short event-engine runs at n = 6:
the final ``arena.data``, every checkpoint record of the history,
``total_local_steps`` and ``staleness_log``.  The cases cover AsyncGossip
(bandwidth-greedy and random peer choice), AsyncDPSGD and AsyncFedAvg
(classic and with ``sample_size``), in float64 and float32, under
``HeterogeneousCompute`` with jitter 0.0 and 0.1 and ``ConstantCompute``;
momentum, Nesterov and weight decay on the one-row local step; a scripted
``FaultPlan`` and a renewal population.  Two synchronous SAPS cases run
under a plan that downs only worker n − 1, so the active set is the
contiguous run ``0 .. n − 2``.

The expected strings were produced by the trainer that still validated
every one-row step twice and fancy-indexed its row; a change that moves
any float, any RNG draw or any event fails here.  The same runs must not
depend on the thread count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD, AsyncDPSGD, AsyncFedAvg, AsyncGossip
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import (
    ConstantCompute,
    EventEngine,
    ExperimentConfig,
    FaultPlan,
    HeterogeneousCompute,
    RenewalPopulation,
    make_workers,
)
from repro.utils import parallel

N_WORKERS = 6
DURATION = 3.0
PLAN = "crash:2@0.7,recover:2@1.9,link_down:0-1@0.3,link_up:0-1@2.2"
#: Synchronous SAPS: only the last worker goes down.
LAST_DOWN_PLAN = f"crash:{N_WORKERS - 1}@1.5,recover:{N_WORKERS - 1}@5"

FAMILIES = {
    "gossip-bandwidth": lambda: AsyncGossip(compression_ratio=4.0, base_seed=3),
    "gossip-random": lambda: AsyncGossip(
        compression_ratio=4.0, base_seed=3, peer_choice="random"
    ),
    "dpsgd": lambda: AsyncDPSGD(),
    "fedavg": lambda: AsyncFedAvg(local_steps=3),
    "fedavg-sampled": lambda: AsyncFedAvg(local_steps=3, sample_size=3),
}

COMPUTE = {
    "hetero0": lambda: HeterogeneousCompute(
        N_WORKERS, mean_step_time=0.05, spread=6.0, jitter=0.0, rng=1
    ),
    "hetero0.1": lambda: HeterogeneousCompute(
        N_WORKERS, mean_step_time=0.05, spread=6.0, jitter=0.1, rng=1
    ),
    "constant": lambda: ConstantCompute(0.04),
}

#: ``(momentum, weight_decay, nesterov)``
OPTIMIZERS = {
    "sgd": (0.0, 0.0, False),
    "momentum": (0.9, 0.0, False),
    "nesterov": (0.9, 0.0, True),
    "decay": (0.9, 1e-3, False),
}


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _setup(algorithm, dtype: str, optim: str):
    """``algorithm`` set up on six MLP workers; returns it, its network
    and the validation set."""
    momentum, weight_decay, nesterov = OPTIMIZERS[optim]
    full = make_blobs(num_samples=N_WORKERS * 32, num_classes=4,
                      num_features=8, rng=3)
    train, validation = full.split(fraction=0.75, rng=3)
    config = ExperimentConfig(batch_size=8, lr=0.2, seed=3, dtype=dtype,
                              momentum=momentum, weight_decay=weight_decay)
    workers = make_workers(
        lambda: MLP(8, [16], 4, rng=3, dtype=dtype),
        partition_iid(train, N_WORKERS, rng=3),
        config,
    )
    for worker in workers:
        worker.optimizer.nesterov = nesterov
    network = SimulatedNetwork(
        N_WORKERS, bandwidth=random_uniform_bandwidth(N_WORKERS, rng=4)
    )
    algorithm.setup(workers, network, rng=5)
    return algorithm, network, validation.astype(dtype)


def run_digest(family: str, dtype: str, compute: str = "", optim: str = "sgd",
               scenario: str = "") -> str:
    """One run's digest.  ``family`` ``"saps"`` is eight synchronous
    rounds under :data:`LAST_DOWN_PLAN`; the others run ``DURATION``
    simulated seconds on the event engine with ``scenario`` ``"plan"``
    (:data:`PLAN`), ``"renewal"`` (a renewal population) or neither."""
    if family == "saps":
        plan = FaultPlan.parse(LAST_DOWN_PLAN, N_WORKERS, horizon=8.0, seed=4)
        algorithm, _, _ = _setup(
            SAPSPSGD(compression_ratio=4.0, base_seed=3, fault_plan=plan,
                     round_duration=1.0),
            dtype, optim,
        )
        losses = np.array(
            [algorithm.run_round(r) for r in range(8)], np.float64
        )
        return _sha256(
            algorithm.arena.data, losses,
            np.array([algorithm.dropped_exchanges]),
        )
    algorithm, network, validation = _setup(FAMILIES[family](), dtype, optim)
    engine = EventEngine(
        network,
        compute_model=COMPUTE[compute](),
        fault_plan=(
            FaultPlan.parse(PLAN, N_WORKERS, horizon=DURATION, seed=4)
            if scenario == "plan" else None
        ),
        population=(
            RenewalPopulation(N_WORKERS, mean_up=1.0, mean_down=0.5, seed=3)
            if scenario == "renewal" else None
        ),
    )
    result = engine.run(algorithm, validation, DURATION, checkpoint_every=0.5)
    history = np.array(
        [
            [r.time_s, r.train_loss, r.val_loss, r.val_accuracy,
             r.consensus_distance, r.worker_traffic_mb, r.server_traffic_mb,
             r.events_processed, r.local_steps, r.mean_staleness]
            for r in result.history
        ],
        np.float64,
    )
    return _sha256(
        algorithm.arena.data, history,
        np.array([result.total_local_steps]),
        np.array(algorithm.staleness_log, np.int64),
    )


GOLDEN = {
    ("gossip-bandwidth", "float64", "hetero0", "sgd", ""): (
        "87a35c79fdbaedbd4010a412359321cd36582f948f77ae2629f210c69fa805b2"
    ),
    ("gossip-bandwidth", "float32", "hetero0.1", "momentum", ""): (
        "99980b90754dfcd4b7361f780697d16862538cd86700dd9eb40f9005930af06d"
    ),
    ("gossip-random", "float64", "constant", "nesterov", ""): (
        "cde4486d76990842e0c11d405617086f2f0571edd062a2f9cf17c3ed92f44ad6"
    ),
    ("gossip-random", "float32", "hetero0", "decay", ""): (
        "4ccbe47d824df62ea0cbff2e60fb9785419e40270bdc9601c4def436b4f4121d"
    ),
    ("gossip-bandwidth", "float64", "hetero0.1", "sgd", "plan"): (
        "e5c13d9d52d595791d489f973fbc8ae1347fcf2304d4cc05ebe4121fdc88925c"
    ),
    ("gossip-bandwidth", "float32", "hetero0", "momentum", "renewal"): (
        "603017c65b3d64bfe7d1ff5873d8d8ffc5559273a5b1dc92415c9cabd0d98bc0"
    ),
    ("dpsgd", "float64", "hetero0", "sgd", ""): (
        "2219d019ab4014cd5da9319a99d429b89fd467dabb5b4226ed359e2d4c7662e5"
    ),
    ("dpsgd", "float32", "hetero0.1", "sgd", ""): (
        "77e29a8c471411ea3e2b11473d702f29ef1146541e06e78368a6f9a3ed905b05"
    ),
    ("dpsgd", "float64", "constant", "sgd", "plan"): (
        "2507147dbf1218d4df44e2b23f64c38ec9f052df39939635daf7b4fe2b7443b1"
    ),
    ("dpsgd", "float32", "hetero0", "sgd", "renewal"): (
        "1786460107d09fd3f4aa248c0dc385c06d3af8f43f05e4b46ef208c4f3e4c652"
    ),
    ("fedavg", "float64", "constant", "decay", "plan"): (
        "ee92245d0630d89f921f45f54a71784fe90672a15526a80c80cc196e905e54c9"
    ),
    ("fedavg-sampled", "float64", "hetero0", "momentum", ""): (
        "1d711924816ab14c1116297e1177073270b436f493aa3dea1102b2b16549a2fb"
    ),
    ("fedavg-sampled", "float32", "hetero0.1", "nesterov", ""): (
        "fc41bee6f3bf8df31bdcd3ddb2342f3bf79f2ea5484b0c2cf47cda5ff50ca7de"
    ),
    ("fedavg-sampled", "float64", "hetero0", "sgd", "renewal"): (
        "769f18e4b21f3962d0e22396170f559f035542541b48994fd9bb392cd0d7ebaa"
    ),
    ("saps", "float64", "", "sgd", ""): (
        "e956611bb0bdd9a2f56a77081e441c3c9cdc3e9a73369e279e4e2aaafcfe04a3"
    ),
    ("saps", "float32", "", "nesterov", ""): (
        "1d79d48d5b33066ece3f3199b6bf88c2610c7162abad1d5a12587e0097d528b9"
    ),
}


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize(
    "case", list(GOLDEN), ids=lambda case: "-".join(filter(None, case))
)
def test_golden_digest(case, threads):
    parallel.set_num_threads(threads)
    try:
        assert run_digest(*case) == GOLDEN[case]
    finally:
        parallel.set_num_threads(None)
