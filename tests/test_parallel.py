"""Thread-parallel execution: primitives and bit-identity guarantees.

The block-parallel hot paths (cluster blocks, fused mixing, batched
top-k, consensus eval) promise that the thread count **never changes
numerics** — any ``REPRO_NUM_THREADS`` produces results bit-identical to
the serial run, because block partitions are fixed and order-sensitive
float folds stay on the caller's thread.  These tests pin that promise
for every algorithm, both dtypes, momentum/weight-decay and churn; plus
the fused passes (D-PSGD mix, SAPS gather) against the per-model
reference loop of ``tests/reference``.
"""

import numpy as np
import pytest

from repro.algorithms import (
    DCDPSGD,
    DPSGD,
    FedAvg,
    PSGD,
    SAPSPSGD,
    SparseFedAvg,
    TopKPSGD,
)
from repro.compression.topk import top_k_indices_matrix
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import ExperimentConfig, FaultPlan, make_workers
from repro.utils import parallel

from reference.compressors import top_k_indices
from reference.per_model import REFERENCE


@pytest.fixture(autouse=True)
def _reset_threads():
    """Every test leaves the global thread configuration untouched."""
    yield
    parallel.set_num_threads(None)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert parallel.num_threads() == 1

    def test_env_variable_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert parallel.num_threads() == 3

    def test_env_variable_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "zero")
        with pytest.raises(ValueError):
            parallel.num_threads()
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ValueError):
            parallel.num_threads()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        parallel.set_num_threads(2)
        assert parallel.num_threads() == 2
        parallel.set_num_threads(None)
        assert parallel.num_threads() == 3

    def test_set_num_threads_validates(self):
        with pytest.raises(ValueError):
            parallel.set_num_threads(0)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_parallel_map_matches_list_comprehension(self, threads):
        parallel.set_num_threads(threads)
        items = list(range(17))
        assert parallel.parallel_map(lambda x: x * x, items) == [
            x * x for x in items
        ]

    def test_parallel_map_propagates_exceptions(self):
        parallel.set_num_threads(2)

        def boom(x):
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            parallel.parallel_map(boom, [1, 2, 3])

    def test_nested_parallel_map_runs_inline(self):
        parallel.set_num_threads(2)

        def outer(x):
            # Nested sections must not deadlock on the shared pool.
            return sum(parallel.parallel_map(lambda y: x * y, [1, 2, 3]))

        assert parallel.parallel_map(outer, [1, 2]) == [6, 12]

    def test_block_ranges_fixed_partition(self):
        assert parallel.block_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert parallel.block_ranges(0, 4) == []
        with pytest.raises(ValueError):
            parallel.block_ranges(10, 0)


# ----------------------------------------------------------------------
# end-to-end thread determinism
# ----------------------------------------------------------------------
ALGORITHMS = {
    "psgd": (PSGD, {}),
    "topk-psgd": (TopKPSGD, dict(compression_ratio=10.0)),
    "fedavg": (FedAvg, dict(participation=0.5, local_steps=2)),
    "s-fedavg": (
        SparseFedAvg,
        dict(participation=0.5, local_steps=2, compression_ratio=5.0),
    ),
    "d-psgd": (DPSGD, {}),
    "dcd-psgd": (DCDPSGD, dict(compression_ratio=4.0)),
    "saps-psgd": (SAPSPSGD, dict(compression_ratio=10.0, local_steps=2)),
}


def run_rounds(
    name,
    threads,
    n=8,
    dtype="float64",
    rounds=3,
    momentum=0.0,
    weight_decay=0.0,
    fault_plan=None,
    reference=False,
):
    """Final replica matrix + per-round losses for one short run
    (``reference=True``: of the family's per-model reference loop)."""
    full = make_blobs(
        num_samples=30 * n, num_classes=3, num_features=6, rng=11
    )
    partitions = partition_iid(full, n, rng=11)
    config = ExperimentConfig(
        rounds=rounds,
        batch_size=8,
        lr=0.1,
        momentum=momentum,
        weight_decay=weight_decay,
        seed=5,
        dtype=dtype,
    )
    workers = make_workers(lambda: MLP(6, [10], 3, rng=2), partitions, config)
    cls, kwargs = ALGORITHMS[name]
    if fault_plan is not None:
        kwargs = dict(kwargs, fault_plan=fault_plan)
    algo = (REFERENCE[cls] if reference else cls)(**kwargs)
    network = SimulatedNetwork(n, bandwidth=random_uniform_bandwidth(n, rng=4))
    algo.setup(workers, network, rng=9)
    parallel.set_num_threads(threads)
    try:
        losses = [algo.run_round(r) for r in range(rounds)]
    finally:
        parallel.set_num_threads(None)
    params = np.stack([worker.get_params() for worker in workers])
    return params, losses


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_thread_count_never_changes_results(name, dtype):
    ref_params, ref_losses = run_rounds(name, threads=1, dtype=dtype)
    for threads in (2, 4):
        params, losses = run_rounds(name, threads=threads, dtype=dtype)
        np.testing.assert_array_equal(ref_params, params)
        assert losses == ref_losses


@pytest.mark.parametrize("name", ["saps-psgd", "d-psgd", "psgd"])
def test_thread_determinism_at_larger_cluster(name):
    ref_params, ref_losses = run_rounds(name, threads=1, n=32)
    params, losses = run_rounds(name, threads=4, n=32)
    np.testing.assert_array_equal(ref_params, params)
    assert losses == ref_losses


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_momentum_weight_decay_thread_determinism(dtype):
    kwargs = dict(momentum=0.9, weight_decay=1e-4, dtype=dtype)
    ref_params, ref_losses = run_rounds("saps-psgd", threads=1, **kwargs)
    params, losses = run_rounds("saps-psgd", threads=4, **kwargs)
    np.testing.assert_array_equal(ref_params, params)
    assert losses == ref_losses


def test_churn_subset_thread_determinism():
    plan = FaultPlan.from_rates(8, mttf=2.5, mttr=2.0, horizon=5.0, seed=3, min_up=1)
    ref_params, ref_losses = run_rounds(
        "saps-psgd", threads=1, fault_plan=plan, rounds=5
    )
    params, losses = run_rounds(
        "saps-psgd", threads=4, fault_plan=plan, rounds=5
    )
    np.testing.assert_array_equal(ref_params, params)
    # Rounds where every worker was offline report nan.
    assert all(
        (a == b) or (np.isnan(a) and np.isnan(b))
        for a, b in zip(ref_losses, losses)
    )


# ----------------------------------------------------------------------
# fused passes vs the per-model reference loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_dpsgd_fused_mix_matches_unfused(dtype):
    ref_params, ref_losses = run_rounds(
        "d-psgd", threads=1, dtype=dtype, reference=True
    )
    for threads in (1, 4):
        params, losses = run_rounds("d-psgd", threads=threads, dtype=dtype)
        np.testing.assert_array_equal(ref_params, params)
        assert losses == ref_losses


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_saps_fused_gather_matches_unfused(dtype):
    ref_params, ref_losses = run_rounds(
        "saps-psgd", threads=1, dtype=dtype, reference=True
    )
    for threads in (1, 4):
        params, losses = run_rounds("saps-psgd", threads=threads, dtype=dtype)
        np.testing.assert_array_equal(ref_params, params)
        assert losses == ref_losses


# ----------------------------------------------------------------------
# batched top-k under threads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_topk_matrix_thread_determinism(threads):
    rng = np.random.default_rng(0)
    # Heavy ties stress the introselect tie-breaking equivalence.
    matrix = rng.integers(-3, 4, size=(33, 257)).astype(np.float64)
    parallel.set_num_threads(threads)
    result = top_k_indices_matrix(matrix, 17)
    parallel.set_num_threads(None)
    expected = np.stack([top_k_indices(row, 17) for row in matrix])
    np.testing.assert_array_equal(result, expected)


# ----------------------------------------------------------------------
# threaded consensus evaluation
# ----------------------------------------------------------------------
def test_evaluate_vector_thread_determinism():
    from repro.sim.cluster import ClusterTrainer

    n = 4
    full = make_blobs(num_samples=200, num_classes=3, num_features=6, rng=2)
    partitions = partition_iid(full, n, rng=2)
    config = ExperimentConfig(rounds=1, batch_size=8, lr=0.1, seed=5)
    workers = make_workers(lambda: MLP(6, [10], 3, rng=2), partitions, config)
    from repro.nn.arena import shared_arena

    arena = shared_arena([worker.model for worker in workers])
    trainer = ClusterTrainer.build(workers, arena=arena)
    vector = arena.mean_model()
    validation = make_blobs(
        num_samples=300, num_classes=3, num_features=6, rng=7
    )
    ref = trainer.evaluate_vector(vector, validation, batch_size=32)
    for threads in (2, 4):
        parallel.set_num_threads(threads)
        got = trainer.evaluate_vector(vector, validation, batch_size=32)
        parallel.set_num_threads(None)
        assert got == ref
