"""Golden trajectories: one case table, one digest, one ``expected.json``.

Each row of :data:`ROWS` names a builder and its parameters: ``sync`` (a
synchronous family on :data:`BLOBS` or the fast ``mnist-cnn`` preset,
optionally under a fault plan, sampling or a population), ``event`` (an
asynchronous family on the event engine), ``pool_chain`` (window kernels)
or ``cli`` (``repro run`` end to end).  A builder returns a short, fully
seeded run's state as named arrays; :func:`digest` hashes them exactly.
``expected.json`` holds each row's digest with its final loss and
accuracy, as ``python -m tests.golden regen REV`` (``__main__.py``) wrote
it from the ``src/`` of commit ``REV``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected.json")

F64, F32 = "float64", "float32"

#: MLP blob workloads: ``n`` workers on ``samples`` blobs of ``features``
#: features (those from ``zeroed`` on set to 0), the ``split`` fraction
#: trains (None: all of it, no validation), one hidden layer of
#: ``hidden``, learning rate ``lr``, random link bandwidths or none.
BLOBS = {
    # Eight of twelve features are zero, so 192 of 412 first-layer
    # weights never get a gradient: TopK-PSGD (k = 103) selects by
    # threshold, DCD-PSGD (k = 275) takes argpartition on every row.
    "topk": dict(n=16, samples=16 * 24 + 64, features=12, zeroed=4,
                 split=384 / 448, hidden=24, lr=0.1, bandwidth=False),
    "fault": dict(n=7, samples=7 * 24, features=8, zeroed=None, split=None,
                  hidden=16, lr=0.2, bandwidth=True),
    "event": dict(n=6, samples=6 * 32, features=8, zeroed=None, split=0.75,
                  hidden=16, lr=0.2, bandwidth=True),
}

PLANS = {
    "scripted": (
        "crash:2@1.2,recover:2@3.1,crash:5@4.0,recover:5@9.5,"
        "link_down:0-1@0.3,link_up:0-1@8,link_down:3-6@1.9,link_up:3-6@7,"
        "link_down:1-5@0.5,link_up:1-5@3,link_down:2-4@0"
    ),
    "rates": "mttf=3,mttr=1.5",
    # Only the last of six workers goes down: the active set is the
    # contiguous run 0 .. n - 2.
    "last-down": "crash:5@1.5,recover:5@5",
    "event": "crash:2@0.7,recover:2@1.9,link_down:0-1@0.3,link_up:0-1@2.2",
}

#: ``(momentum, weight_decay, nesterov)``
OPTIMIZERS = {
    "sgd": (0.0, 0.0, False),
    "momentum": (0.9, 0.0, False),
    "nesterov": (0.9, 0.0, True),
    "decay": (0.9, 1e-3, False),
}

#: Simulated seconds of an ``event`` row.
DURATION = 3.0


def digest(arrays: dict) -> str:
    """sha256 over each named array's name, dtype, shape and bytes, in
    sorted name order."""
    sha = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        sha.update(name.encode())
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def blob_workers(setup: str, dtype: str, optim: str = "sgd"):
    """Workers on the :data:`BLOBS` workload ``setup``; returns them, their
    network and the validation split (None without a split)."""
    from repro.data import make_blobs, partition_iid
    from repro.network import SimulatedNetwork, random_uniform_bandwidth
    from repro.nn import MLP
    from repro.sim import ExperimentConfig, make_workers

    spec = BLOBS[setup]
    n, features = spec["n"], spec["features"]
    momentum, weight_decay, nesterov = OPTIMIZERS[optim]
    full = make_blobs(num_samples=spec["samples"], num_classes=4,
                      num_features=features, rng=3)
    if spec["zeroed"] is not None:
        full.features[:, spec["zeroed"]:] = 0.0
    train, validation = full, None
    if spec["split"] is not None:
        train, validation = full.split(fraction=spec["split"], rng=3)
        validation = validation.astype(dtype)
    config = ExperimentConfig(batch_size=8, lr=spec["lr"], seed=3, dtype=dtype,
                              momentum=momentum, weight_decay=weight_decay)
    workers = make_workers(
        lambda: MLP(features, [spec["hidden"]], 4, rng=3, dtype=dtype),
        partition_iid(train, n, rng=3),
        config,
    )
    for worker in workers:
        worker.optimizer.nesterov = nesterov
    bandwidth = random_uniform_bandwidth(n, rng=4) if spec["bandwidth"] else None
    return workers, SimulatedNetwork(n, bandwidth=bandwidth), validation


def sync(family, data, dtype, rounds, plan=None, delta=1.0, extra="",
         optim="sgd"):
    """``rounds`` of ``family`` ("saps", "topk" or "dcd") on ``data`` (a
    :data:`BLOBS` key or "mnist-cnn"), SAPS under ``PLANS[plan]`` at round
    duration ``delta``; ``extra`` is "sampled" (five drawn per round) or
    "population" (a renewal population)."""
    from repro.algorithms import DCDPSGD, SAPSPSGD, TopKPSGD
    from repro.network import SimulatedNetwork
    from repro.presets import instantiate_preset
    from repro.sim import FaultPlan, RenewalPopulation, make_workers

    if data == "mnist-cnn":
        partitions, validation, factory, config = instantiate_preset(
            "mnist-cnn", 8, fast=True, samples_per_worker=24,
            validation_samples=40, seed=3, dtype=dtype,
        )
        config = dataclasses.replace(config, batch_size=6, lr=0.1, momentum=0.9)
        workers = make_workers(factory, partitions, config)
        network = SimulatedNetwork(8)
    else:
        workers, network, validation = blob_workers(data, dtype, optim)
    n = len(workers)
    if family == "topk":
        algorithm = TopKPSGD(4.0)
    elif family == "dcd":
        algorithm = DCDPSGD(1.5)
    else:
        wiring = {}
        if plan is not None:
            wiring.update(
                fault_plan=FaultPlan.parse(PLANS[plan], n, horizon=rounds * delta,
                                           seed=4),
                round_duration=delta,
            )
        if extra == "sampled":
            wiring["sample_size"] = 5
        elif extra == "population":
            wiring["population"] = RenewalPopulation(n, mean_up=4.0, mean_down=2.0,
                                                     seed=3)
        algorithm = SAPSPSGD(compression_ratio=4.0, base_seed=3, **wiring)
    algorithm.setup(workers, network, rng=5)
    arrays = {
        "losses": np.array([algorithm.run_round(r) for r in range(rounds)],
                           np.float64),
        "arena": algorithm.arena.data,
    }
    if family == "saps":
        arrays["dropped_exchanges"] = np.array([algorithm.dropped_exchanges])
    if family == "topk":
        arrays["residual"] = algorithm._batch_feedback.residual
    if validation is not None:
        arrays["eval"] = np.array(
            algorithm.cluster_trainer.evaluate_vector(
                algorithm.arena.mean_model(), validation, batch_size=16
            ),
            np.float64,
        )
    return arrays


def event(family, dtype, compute, optim="sgd", scenario=""):
    """:data:`DURATION` simulated seconds of an asynchronous ``family`` on
    the ``event`` blobs under ``compute``; ``scenario`` is "plan"
    (``PLANS["event"]``), "renewal" (a renewal population), both
    ("plan-renewal") or neither."""
    from repro.algorithms import AsyncDPSGD, AsyncFedAvg, AsyncGossip
    from repro.sim import (
        ConstantCompute, EventEngine, FaultPlan, HeterogeneousCompute,
        RenewalPopulation,
    )

    algorithm = {
        "gossip-bandwidth": lambda: AsyncGossip(compression_ratio=4.0, base_seed=3),
        "gossip-random": lambda: AsyncGossip(compression_ratio=4.0, base_seed=3,
                                             peer_choice="random"),
        "dpsgd": lambda: AsyncDPSGD(),
        "fedavg": lambda: AsyncFedAvg(local_steps=3),
        "fedavg-sampled": lambda: AsyncFedAvg(local_steps=3, sample_size=3),
    }[family]()
    workers, network, validation = blob_workers("event", dtype, optim)
    n = len(workers)
    scenario = scenario.split("-")
    algorithm.setup(workers, network, rng=5)
    if compute == "constant":
        compute_model = ConstantCompute(0.04)
    else:
        compute_model = HeterogeneousCompute(
            n, mean_step_time=0.05, spread=6.0,
            jitter={"hetero0": 0.0, "hetero0.1": 0.1}[compute], rng=1,
        )
    engine = EventEngine(
        network,
        compute_model=compute_model,
        fault_plan=(FaultPlan.parse(PLANS["event"], n, horizon=DURATION, seed=4)
                    if "plan" in scenario else None),
        population=(RenewalPopulation(n, mean_up=1.0, mean_down=0.5, seed=3)
                    if "renewal" in scenario else None),
    )
    result = engine.run(algorithm, validation, DURATION, checkpoint_every=0.5)
    history = [
        [r.time_s, r.train_loss, r.val_loss, r.val_accuracy,
         r.consensus_distance, r.worker_traffic_mb, r.server_traffic_mb,
         r.events_processed, r.local_steps, r.mean_staleness]
        for r in result.history
    ]
    return {
        "arena": algorithm.arena.data,
        "history": np.array(history, np.float64),
        "total_local_steps": np.array([result.total_local_steps]),
        "staleness_log": np.array(algorithm.staleness_log, np.int64),
    }


def pool_chain(dtype):
    """A padded, overlapping max-pool, per worker, on tie-heavy NCHW and
    channels-last input; then three batched steps and a consensus
    evaluation of a conv model built around it."""
    from repro.data import make_synthetic_images, partition_iid
    from repro.nn.activations import ReLU
    from repro.nn.module import Sequential
    from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d
    from repro.sim import ClusterTrainer, ExperimentConfig, make_workers
    from tests.reference.per_worker import per_worker

    rng = np.random.default_rng(0)
    images = rng.integers(-3, 4, size=(2, 3, 9, 9)).astype(dtype)
    nhwc = np.ascontiguousarray(images.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    arrays = {}
    for layout, inputs in (("nchw", images), ("nhwc", nhwc)):
        pool = per_worker(MaxPool2d(3, stride=2, padding=1))
        out = pool.forward(inputs)
        grad = pool.backward(rng.normal(size=out.shape).astype(dtype))
        arrays[f"chain.{layout}.out"], arrays[f"chain.{layout}.grad"] = out, grad

    full = make_synthetic_images(120, num_classes=4, channels=1, size=8,
                                 noise=0.2, rng=5)
    train, validation = full.split(fraction=96 / 120, rng=5)
    config = ExperimentConfig(rounds=1, batch_size=8, lr=0.1, momentum=0.9,
                              seed=3, dtype=dtype)
    factory = lambda: Sequential(
        Conv2d(1, 4, 3, padding=1, rng=7, dtype=dtype),
        ReLU(),
        MaxPool2d(3, stride=2, padding=1),
        Conv2d(4, 6, 3, bias=False, rng=7, dtype=dtype),
        ReLU(),
        Flatten(),
        Linear(6 * 2 * 2, 4, rng=7, dtype=dtype),
    )
    trainer = ClusterTrainer.build(
        make_workers(factory, partition_iid(train, 3, rng=5), config)
    )
    arrays["losses"] = trainer.batched_steps(3)
    arrays["arena"] = trainer.arena.data
    arrays["eval"] = np.array(
        trainer.evaluate_vector(trainer.arena.mean_model(), validation), np.float64
    )
    return arrays


def cli(argv):
    """``repro run ARGV --output out.json`` in a temporary directory:
    the stdout bytes and ``out.json``, which holds the history at full
    precision."""
    from repro import cli as repro_cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                status = repro_cli.main(["run", *argv.split(), "--output", "out.json"])
            saved = Path("out.json").read_bytes()
        finally:
            os.chdir(cwd)
    assert status == 0, argv
    return {
        "stdout": np.frombuffer(stdout.getvalue().encode(), np.uint8),
        "out.json": np.frombuffer(saved, np.uint8),
    }


BUILDERS = {"sync": sync, "event": event, "pool_chain": pool_chain, "cli": cli}


def _name(*parts) -> str:
    return "-".join(str(part) for part in parts if part).replace("float", "f")


def _sync(family, data, dtype, rounds, **more):
    return "sync", dict(family=family, data=data, dtype=dtype, rounds=rounds, **more)


#: Synchronous SAPS reading a fault plan over its round windows, n = 7:
#: ``(plan, delta, dtype, extra)``.
FAULT_CASES = [
    ("scripted", 1.0, F64, ""), ("scripted", 1.0, F32, ""),
    ("scripted", 0.37, F64, ""), ("scripted", 0.37, F32, ""),
    ("rates", 1.0, F64, ""), ("rates", 1.0, F32, ""),
    ("rates", 0.37, F64, ""), ("rates", 0.37, F32, ""),
    ("scripted", 1.0, F32, "sampled"), ("rates", 0.37, F64, "sampled"),
    ("scripted", 0.37, F64, "population"), ("rates", 1.0, F32, "population"),
]

#: The event engine's families, n = 6, one-row steps on the slice path:
#: ``(family, dtype, compute, optim, scenario)``.
EVENT_CASES = [
    ("gossip-bandwidth", F64, "hetero0", "sgd", ""),
    ("gossip-bandwidth", F32, "hetero0.1", "momentum", ""),
    ("gossip-random", F64, "constant", "nesterov", ""),
    ("gossip-random", F32, "hetero0", "decay", ""),
    ("gossip-bandwidth", F64, "hetero0.1", "sgd", "plan"),
    ("gossip-bandwidth", F32, "hetero0", "momentum", "renewal"),
    ("dpsgd", F64, "hetero0", "sgd", ""),
    ("dpsgd", F32, "hetero0.1", "sgd", ""),
    ("dpsgd", F64, "constant", "sgd", "plan"),
    ("dpsgd", F32, "hetero0", "sgd", "renewal"),
    ("fedavg", F64, "constant", "decay", "plan"),
    ("fedavg-sampled", F64, "hetero0", "momentum", ""),
    ("fedavg-sampled", F32, "hetero0.1", "nesterov", ""),
    ("fedavg-sampled", F64, "hetero0", "sgd", "renewal"),
    # A fault plan and a population at once.
    *[(family, F64, "hetero0", "sgd", "plan-renewal")
      for family in ("gossip-bandwidth", "dpsgd", "fedavg-sampled")],
]

_SYNC7 = "--workers 7 --rounds 12 --eval-every 4"
_EVENT7 = "--engine event --workers 7 --sim-time 6"
_CNN4 = ("--preset mnist-cnn --workers 4 --rounds 6 --eval-every 3 "
         "--samples-per-worker 24 --validation-samples 40 --compression 10")
_PLAN = "--fault-plan crash:2@1.2,recover:2@3.1,link_down:0-1@0.3,link_up:0-1@4"
_SAMPLED4 = "--participation sampled --sample-size 4"
_RENEWAL = "--population-model renewal:up=6,down=3"

#: ``repro run`` argv by row name (after ``cli-``): flag parsing, the
#: workload, the printed tables and the saved history, end to end.
CLI_CASES = {
    **{algorithm: f"--algorithm {algorithm} {_SYNC7}"
       for algorithm in ("saps-psgd", "psgd", "topk-psgd", "d-psgd", "dcd-psgd",
                         "fedavg", "s-fedavg")},
    **{f"event-{algorithm}": f"--algorithm {algorithm} {_EVENT7}"
       for algorithm in ("saps-psgd", "d-psgd", "fedavg", "psgd")},
    "saps-plan-0.37": f"{_SYNC7} {_PLAN} --round-duration 0.37",
    "saps-rates-sampled-f32": (
        f"{_SYNC7} --fault-plan mttf=6,mttr=2 --participation sampled "
        "--sample-size 5 --dtype float32"),
    "s-fedavg-sampled-renewal": f"--algorithm s-fedavg {_SYNC7} {_SAMPLED4} {_RENEWAL}",
    "saps-local3-f32": f"{_SYNC7} --local-steps 3 --dtype float32",
    "dcd-psgd-c2-f32": f"--algorithm dcd-psgd {_SYNC7} --compression 2 --dtype float32",
    "event-saps-spread4-plan-peer": f"{_EVENT7} --compute-spread 4 {_PLAN} --recovery peer",
    "event-fedavg-sampled-renewal-f32": (
        f"--algorithm fedavg {_EVENT7} {_SAMPLED4} {_RENEWAL} --dtype float32"),
    "event-d-psgd-plan": f"--algorithm d-psgd {_EVENT7} {_PLAN}",
    "cnn-saps-local2": f"{_CNN4} --local-steps 2",
    "cnn-topk-psgd": f"--algorithm topk-psgd {_CNN4}",
}

ROWS = {
    # SAPS-PSGD on the fast mnist-cnn preset at n = 8 with a consensus
    # evaluation, and the pool chain: the window kernels.
    **{_name("sync-saps-cnn", d): _sync("saps", "mnist-cnn", d, 5) for d in (F64, F32)},
    **{_name("pool-chain", d): ("pool_chain", dict(dtype=d)) for d in (F64, F32)},
    # Top-k and error feedback: TopK-PSGD and DCD-PSGD at n = 16.
    **{_name("sync", family, d): _sync(family, "topk", d, 5)
       for family in ("topk", "dcd") for d in (F64, F32)},
    **{_name("sync-saps", plan, delta, d, extra):
       _sync("saps", "fault", d, 12, plan=plan, delta=delta, extra=extra)
       for plan, delta, d, extra in FAULT_CASES},
    **{_name("event", *case):
       ("event", dict(zip(("family", "dtype", "compute", "optim", "scenario"), case)))
       for case in EVENT_CASES},
    # Synchronous SAPS with a contiguous active set, n = 6.
    **{_name("sync-saps-last-down", d, optim):
       _sync("saps", "event", d, 8, plan="last-down", optim=optim)
       for d, optim in ((F64, "sgd"), (F32, "nesterov"))},
    **{f"cli-{name}": ("cli", dict(argv=argv)) for name, argv in CLI_CASES.items()},
}


def run_row(name: str) -> dict:
    """Row ``name``'s named arrays."""
    builder, params = ROWS[name]
    return BUILDERS[builder](**params)


def finals(arrays: dict) -> tuple:
    """``(final train loss, final accuracy or None)`` of one row's arrays."""
    if "out.json" in arrays:
        last = json.loads(arrays["out.json"].tobytes())["history"][-1]
        return last["train_loss"], last["val_accuracy"]
    if "history" in arrays:
        return float(arrays["history"][-1, 1]), float(arrays["history"][-1, 3])
    accuracy = float(arrays["eval"][1]) if "eval" in arrays else None
    # Per-round losses, or a (workers, steps) matrix: the last step's mean.
    return float(np.mean(arrays["losses"][..., -1])), accuracy


def measure(name: str) -> dict:
    """What ``expected.json`` records of row ``name``."""
    arrays = run_row(name)
    loss, accuracy = finals(arrays)
    return {"digest": digest(arrays), "loss": loss, "accuracy": accuracy}


def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
