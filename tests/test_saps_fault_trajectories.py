"""Synchronous SAPS under a fault plan, pinned by golden digests.

sha256 over the exact float bits of twelve SAPS-PSGD rounds at n = 7
(arena, per-round losses, dropped-exchange count) under a scripted
crash + link plan and a seeded MTTF/MTTR plan, at round durations 1.0
and 0.37, in float64 and float32, and with the plan combined with
sampled participation or a client population.  The expected strings
were produced by the round-level projections the plan used to be read
through (a per-round churn mask and a per-exchange loss hook); a change
that moves any float, any mask or any lost exchange fails here.  The
same runs must not depend on the thread count.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import ExperimentConfig, FaultPlan, RenewalPopulation, make_workers
from repro.utils import parallel

N_WORKERS = 7
ROUNDS = 12

PLANS = {
    "scripted": (
        "crash:2@1.2,recover:2@3.1,crash:5@4.0,recover:5@9.5,"
        "link_down:0-1@0.3,link_up:0-1@8,link_down:3-6@1.9,link_up:3-6@7,"
        "link_down:1-5@0.5,link_up:1-5@3,link_down:2-4@0"
    ),
    "rates": "mttf=3,mttr=1.5",
}


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def run_digest(plan_kind: str, delta: float, dtype: str, extra: str = "") -> str:
    """Twelve rounds of SAPS-PSGD under ``PLANS[plan_kind]`` at round
    duration ``delta``; ``extra`` adds ``"sample"`` (five of seven drawn
    per round) or ``"population"`` (a renewal population)."""
    plan = FaultPlan.parse(
        PLANS[plan_kind], N_WORKERS, horizon=ROUNDS * delta, seed=4
    )
    full = make_blobs(num_samples=N_WORKERS * 24, num_classes=4,
                      num_features=8, rng=3)
    config = ExperimentConfig(rounds=ROUNDS, batch_size=8, lr=0.2, seed=3,
                              dtype=dtype)
    workers = make_workers(
        lambda: MLP(8, [16], 4, rng=3, dtype=dtype),
        partition_iid(full, N_WORKERS, rng=3),
        config,
    )
    kwargs = {}
    if extra == "sample":
        kwargs["sample_size"] = 5
    elif extra == "population":
        kwargs["population"] = RenewalPopulation(
            N_WORKERS, mean_up=4.0, mean_down=2.0, seed=3
        )
    algorithm = SAPSPSGD(
        compression_ratio=4.0, base_seed=3, fault_plan=plan,
        round_duration=delta, **kwargs,
    )
    network = SimulatedNetwork(
        N_WORKERS, bandwidth=random_uniform_bandwidth(N_WORKERS, rng=4)
    )
    algorithm.setup(workers, network, rng=5)
    losses = np.array(
        [algorithm.run_round(r) for r in range(ROUNDS)], np.float64
    )
    return _sha256(
        algorithm.arena.data, losses, np.array([algorithm.dropped_exchanges])
    )


#: Produced on the same runs through the per-round availability-mask and
#: exchange-loss hooks the plan was read through before ``SAPSPSGD``
#: took it directly.
GOLDEN = {
    ("scripted", 1.0, "float64", ""): (
        "3843ac96d83bc13ea29c11ed28d5cdd4e5aa7c65f243825ae84cafe65361a82f"
    ),
    ("scripted", 1.0, "float32", ""): (
        "4d10432e02761cf1b4b6e1f619c383e79757080d0e4f24863a9b8fef3f060caf"
    ),
    ("scripted", 0.37, "float64", ""): (
        "b0636561d3e605ec8588e286044c66972faf9018f86585739d2fb06b2f251d66"
    ),
    ("scripted", 0.37, "float32", ""): (
        "fd069d5a99956cb0b105aefa41eedf349dbb4d59699f2d1f38154af472cbaaf5"
    ),
    ("rates", 1.0, "float64", ""): (
        "bb80e90f5193b5da3a247a6f13468f216233a4b0ae3ed74a21a4b21d89ca04e8"
    ),
    ("rates", 1.0, "float32", ""): (
        "17281934adeb6ddadabed153314320c5b02eb61f42c289e87d315af268c1119d"
    ),
    ("rates", 0.37, "float64", ""): (
        "1cd4309c59b6f01de3a4a23e660e01a1cff7c048503f2ccab504d12c037847fe"
    ),
    ("rates", 0.37, "float32", ""): (
        "afd48f83f1490905f2f812c17b13ffd434171c1c989a21edfc5b5d4056058f75"
    ),
    ("scripted", 1.0, "float32", "sample"): (
        "fac7e082f4618d31db8df44060d759ab3d31129ef9956079e8c9b4ff5ac6242c"
    ),
    ("rates", 0.37, "float64", "sample"): (
        "687acd971ad9ecc379b16407afaa8f012ed8fdd003aa388d3db487f04160ac8e"
    ),
    ("scripted", 0.37, "float64", "population"): (
        "ada5505c07f7c85d4c5d1c370d995ac83244386e70d643d9c64b9869aa558b79"
    ),
    ("rates", 1.0, "float32", "population"): (
        "d17f2ec7d101c412ede91efefed05cd7f34dff45fc073408bfd9c9d7917b7a04"
    ),
}


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize(
    "case", list(GOLDEN), ids=lambda case: "-".join(filter(None, map(str, case)))
)
def test_golden_digest(case, threads):
    parallel.set_num_threads(threads)
    try:
        assert run_digest(*case) == GOLDEN[case]
    finally:
        parallel.set_num_threads(None)
