"""Stacked local steps on the event engine equal one row at a time.

AsyncGossip and AsyncFedAvg step every frozen worker (compute begun, no
result pending) in one pass at the first of their compute-done events,
and commit each other worker's result at its own.  The oracle is
:mod:`reference.one_row`, the one-row engine.  A drawn run — family and
peer choice or sampling, dtype, optimizer, ``local_steps`` ∈ {1, 5}, a
generated fault plan that crashes workers mid-compute, a recovery
policy, optionally a renewal population — must leave both engines with
the same history, arena, velocity, step count, staleness log and global
model, and every worker whose steps were committed with the same
loader state.  A worker stepped ahead whose done event lies past the
horizon is the only one whose loader may differ.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AsyncFedAvg, AsyncGossip, LogisticBlobsTask, SAPSPSGD, SampledAsyncFedAvg,
    SampledSAPS,
)
from repro.algorithms.base import DivergenceError
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.resilience import make_recovery_policy
from repro.sim import (
    ConstantCompute, EventEngine, ExperimentConfig, HeterogeneousCompute,
    RenewalPopulation, make_workers,
)
from repro.sim.cluster import ClusterTrainer
from repro.sim.faults import FaultEvent, FaultPlan

from reference.one_row import OneRowAsyncFedAvg, OneRowAsyncGossip

DURATION = 1.2

#: ``(momentum, weight_decay, nesterov)``
OPTIMIZERS = {
    "sgd": (0.0, 0.0, False),
    "momentum": (0.9, 0.0, False),
    "nesterov": (0.9, 0.0, True),
    "decay": (0.9, 1e-3, False),
}

def _steps(algorithm, k):
    """``algorithm`` taking ``k`` local steps a cycle, as
    ``run_event_experiment`` sets them from the config."""
    algorithm.local_steps = k
    return algorithm


FAMILIES = {
    "gossip-bandwidth": lambda cls, k: _steps(cls(compression_ratio=3.0, base_seed=2), k),
    "gossip-random": lambda cls, k: _steps(
        cls(compression_ratio=3.0, base_seed=2, peer_choice="random"), k),
    "fedavg": lambda cls, k: cls(local_steps=k),
    "fedavg-sampled": lambda cls, k: cls(local_steps=k, sample_size=3),
}


@st.composite
def fault_plans(draw, n: int):
    """Crash / recover pairs (at most two a worker, never overlapping)
    and one optional link fault, all inside the run."""
    events = []
    for worker in range(n):
        t = 0.0
        for _ in range(draw(st.integers(0, 2))):
            crash = t + draw(st.floats(0.02, 0.5))
            recover = crash + draw(st.floats(0.01, 0.3))
            if recover >= DURATION:
                break
            events += [FaultEvent(crash, "crash", worker=worker),
                       FaultEvent(recover, "recover", worker=worker)]
            t = recover
    if draw(st.booleans()):
        down = draw(st.floats(0.0, DURATION / 2))
        link = (0, 1)
        events += [FaultEvent(down, "link_down", link=link),
                   FaultEvent(down + 0.3, "link_up", link=link)]
    return FaultPlan(n, events)


@st.composite
def scenarios(draw):
    n = draw(st.integers(3, 7))
    return dict(
        n=n,
        family=draw(st.sampled_from(sorted(FAMILIES))),
        dtype=draw(st.sampled_from(["float64", "float32"])),
        optim=draw(st.sampled_from(sorted(OPTIMIZERS))),
        local_steps=draw(st.sampled_from([1, 5])),
        plan=draw(st.none() | fault_plans(n)),
        recovery=draw(st.sampled_from(["checkpoint", "peer", "cold"])),
        population=draw(st.booleans()),
        seed=draw(st.integers(0, 3)),
    )


def run(scenario: dict, stacked: bool, gossip_cls=AsyncGossip):
    """One run of ``scenario``, the stacked gossip family being
    ``gossip_cls``; returns ``(algorithm, result)``."""
    n, dtype = scenario["n"], scenario["dtype"]
    gossip = scenario["family"].startswith("gossip")
    cls = {(True, True): gossip_cls, (True, False): OneRowAsyncGossip,
           (False, True): AsyncFedAvg, (False, False): OneRowAsyncFedAvg}[
        gossip, stacked]
    algorithm = FAMILIES[scenario["family"]](cls, scenario["local_steps"])
    momentum, weight_decay, nesterov = OPTIMIZERS[scenario["optim"]]
    full = make_blobs(num_samples=24 * n + 48, num_classes=3, num_features=5,
                      rng=scenario["seed"])
    train, validation = full.split(fraction=24 * n / (24 * n + 48), rng=1)
    config = ExperimentConfig(batch_size=6, lr=0.2, seed=scenario["seed"],
                              dtype=dtype, momentum=momentum,
                              weight_decay=weight_decay)
    workers = make_workers(lambda: MLP(5, [7], 3, rng=1, dtype=dtype),
                           partition_iid(train, n, rng=1), config)
    for worker in workers:
        worker.optimizer.nesterov = nesterov
    network = SimulatedNetwork(n, bandwidth=random_uniform_bandwidth(n, rng=2))
    algorithm.setup(workers, network, rng=scenario["seed"])
    engine = EventEngine(
        network,
        compute_model=HeterogeneousCompute(n, mean_step_time=0.03, spread=4.0,
                                           jitter=0.2, rng=scenario["seed"]),
        fault_plan=scenario["plan"],
        recovery=make_recovery_policy(scenario["recovery"], 0.2),
        population=(RenewalPopulation(n, mean_up=0.8, mean_down=0.3, seed=1)
                    if scenario["population"] else None),
    )
    result = engine.run(algorithm, validation.astype(dtype), DURATION,
                        checkpoint_every=0.1)
    return algorithm, result


def history(result) -> np.ndarray:
    return np.array(
        [[r.time_s, r.train_loss, r.val_loss, r.val_accuracy,
          r.consensus_distance, r.worker_traffic_mb, r.server_traffic_mb,
          r.events_processed, r.local_steps, r.mean_staleness]
         for r in result.history],
        np.float64,
    )


def assert_same_run(scenario: dict, gossip_cls=AsyncGossip) -> None:
    """Run ``scenario`` on both engines and assert they agree."""
    stacked, got = run(scenario, stacked=True, gossip_cls=gossip_cls)
    one_row, want = run(scenario, stacked=False)
    np.testing.assert_array_equal(history(got), history(want))
    np.testing.assert_array_equal(stacked.arena.data, one_row.arena.data)
    velocities = [alg.cluster_trainer._velocity for alg in (stacked, one_row)]
    assert (velocities[0] is None) == (velocities[1] is None)
    if velocities[0] is not None:
        np.testing.assert_array_equal(*velocities)
    assert got.total_local_steps == want.total_local_steps
    assert stacked.staleness_log == one_row.staleness_log
    if isinstance(stacked, AsyncFedAvg):
        np.testing.assert_array_equal(stacked.global_model, one_row.global_model)
    # Steps run ahead for a done event past the horizon: nothing else.
    assert stacked._frozen.isdisjoint(stacked._pending)
    for rank, (ours, theirs) in enumerate(zip(stacked.workers, one_row.workers)):
        if rank in stacked._pending:
            continue
        assert ours.loader._rng.bit_generator.state == theirs.loader._rng.bit_generator.state
        assert ours.steps_taken == theirs.steps_taken
        assert ours.last_loss == theirs.last_loss or (
            math.isnan(ours.last_loss) and math.isnan(theirs.last_loss))


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_stacked_equals_one_row(scenario):
    assert_same_run(scenario)


def test_a_crash_rewinds_a_step_run_ahead():
    """Worker 4 crashes mid-compute after a faster worker's pass stepped
    it ahead: the step is dropped, its loader rewound, and the run after
    its recovery is the one-row run's."""
    crashed_pending = []

    class Spy(AsyncGossip):
        def on_worker_crashed(self, rank, now):
            crashed_pending.append(rank in self._pending)
            super().on_worker_crashed(rank, now)

    scenario = dict(n=6, family="gossip-bandwidth", dtype="float64",
                    optim="momentum", local_steps=5, recovery="checkpoint",
                    population=False, seed=0,
                    plan=FaultPlan(6, [FaultEvent(0.31, "crash", worker=4),
                                       FaultEvent(0.5, "recover", worker=4)]))
    assert_same_run(scenario, gossip_cls=Spy)
    assert crashed_pending == [True]


def test_passes_at_the_async_gossip32_event_shape():
    """The e2e workload's 26,785 local steps take at most 3,000 stacked
    passes (2,859 measured; one row a pass took 26,785)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
    import workloads

    passes = []
    original = ClusterTrainer.batched_steps

    def counting(self, k, ranks=None):
        passes.append(k)
        return original(self, k, ranks)

    class Marks:
        def run_begins(self):
            pass

    ClusterTrainer.batched_steps = counting
    try:
        out = workloads.run_async_gossip32_event(1, False, Marks())
    finally:
        ClusterTrainer.batched_steps = original
    assert out.steps == 26_785
    assert len(passes) <= 3_000


# ----------------------------------------------------------------------
# loud divergence
# ----------------------------------------------------------------------
def _blob_workers(n: int):
    full = make_blobs(num_samples=16 * n, num_classes=3, num_features=5, rng=1)
    config = ExperimentConfig(batch_size=4, lr=0.1, seed=1)
    return make_workers(lambda: MLP(5, [6], 3, rng=1),
                        partition_iid(full, n, rng=1), config)


def test_sync_saps_names_the_diverged_worker_and_round():
    algorithm = SAPSPSGD(compression_ratio=2.0)
    algorithm.setup(_blob_workers(5), SimulatedNetwork(5), rng=0)
    algorithm.run_round(0)
    algorithm.arena.data[3, 0] = np.nan
    with pytest.raises(DivergenceError) as caught:
        algorithm.run_round(1)
    assert str(caught.value) == (
        f"{algorithm.name}: worker 3 produced a non-finite loss in its "
        "local step at round 1")


def test_async_gossip_raises_at_the_diverged_workers_own_done_event():
    """Worker 1's NaN loss is computed early, in a faster worker's
    stacked pass; the error fires at worker 1's own compute-done."""
    n = 6
    workers = _blob_workers(n)
    network = SimulatedNetwork(n, bandwidth=random_uniform_bandwidth(n, rng=2))
    algorithm = AsyncGossip(compression_ratio=2.0)
    algorithm.setup(workers, network, rng=0)
    compute = HeterogeneousCompute(n, mean_step_time=0.05, spread=6.0,
                                   jitter=0.0, rng=1)
    firsts = [compute.step_time(0, rank, 1) for rank in range(n)]
    assert min(firsts) < firsts[1]
    algorithm.arena.data[1, 0] = np.nan
    engine = EventEngine(network, compute_model=compute)
    validation = make_blobs(num_samples=30, num_classes=3, num_features=5, rng=2)
    with pytest.raises(DivergenceError) as caught:
        engine.run(algorithm, validation, 5.0, checkpoint_every=1.0)
    assert str(caught.value) == (
        "Async-SAPS: worker 1 produced a non-finite loss in its local step "
        f"at simulated time {firsts[1]}")


def test_sampled_saps_names_the_diverged_client_and_round():
    n = 12
    algorithm = SampledSAPS(LogisticBlobsTask(num_features=6, num_classes=3),
                            n, sample_size=7, capacity=n, seed=0)
    algorithm.run_round(0)
    for client in range(n):
        algorithm.arena.row(client)[0] = np.nan
    with pytest.raises(DivergenceError) as caught:
        algorithm.run_round(1)
    assert str(caught.value) == (
        f"Sampled-SAPS: client {algorithm.last_participants[0]} produced a "
        "non-finite loss in its local step at round 1")


def test_sampled_async_fedavg_raises_at_the_first_compute_done():
    algorithm = SampledAsyncFedAvg(LogisticBlobsTask(), 50, sample_size=4, seed=0)
    algorithm.global_model[0] = np.nan
    engine = EventEngine(SimulatedNetwork(50, server_bandwidth=100.0),
                         compute_model=ConstantCompute(0.5))
    with pytest.raises(DivergenceError, match=(
            r"^Sampled-Async-FedAvg: client \d+ produced a non-finite loss in "
            r"its local step at simulated time ")):
        engine.run(algorithm, validation=algorithm.task, duration=5.0,
                   checkpoint_every=1.0)
    assert algorithm.total_local_steps == 0
