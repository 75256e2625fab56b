"""What Algorithm 3's selector and the workers' optimizers hold, measured
with tracemalloc at ``saps1024_mlp``'s scale (n = 1,024, the
``bench_peer_selection`` bandwidth draw): state nobody reads is not
allocated, and a round's temporaries stay per-edge arrays and a bool
mask or two.  At ``saps32_cnn``'s shape, a warm conv step and a warm
consensus eval allocate nothing block-sized."""

import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.gossip import AdaptivePeerSelector
from repro.data import make_blobs
from repro.network.bandwidth import random_uniform_bandwidth
from repro.nn import MLP
from repro.nn import optim
from repro.presets import instantiate_preset
from repro.sim.cluster import ClusterTrainer
from repro.sim.engine import make_workers
from repro.sim.trainer import TrainingWorker, bind_arena
from repro.utils import parallel

MiB = 1024 * 1024
WORKERS = 1024


@contextlib.contextmanager
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def traced_call(call):
    """``(result, kept, peak)``: bytes ``call()`` left allocated and the
    most it had allocated at once, both above what was live before it."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    current, peak = tracemalloc.get_traced_memory()
    return result, current - before, peak - before


@pytest.fixture(scope="module")
def bandwidth():
    return random_uniform_bandwidth(WORKERS, low=1.0, rng=1)


class TestSelector:
    def test_construction_peaks_within_2_mib_of_its_state(self, bandwidth):
        """B's links are listed a block of rows at a time and the first
        greedy tier found in tier-sized memory: a whole-list argsort
        would hold 8 MiB of keys and indices for a 2 MiB list (12.0 MiB
        kept, 1.38 transient read; R was a 4 MiB int32 matrix before it
        became a ring)."""
        with traced():
            selector, kept, peak = traced_call(
                lambda: AdaptivePeerSelector(bandwidth, rng=1, prefer_weighted=True)
            )
        # B (float64), B* (bool), B's links and B*'s (int32): 12 MiB at
        # n = 1,024, and no per-round state until the first select.
        assert kept <= 13 * MiB + MiB // 4
        assert peak - kept <= 17 * MiB // 10
        assert selector._links.dtype == np.int32
        assert not selector._recent

    def test_weighted_select_transients(self, bandwidth):
        """No float graph and no per-round tie keys: round 0 (fallback on
        the complete graph) at most 6 MiB, a connected round at most 2
        (4.7 / 1.5 read; 8.7 / 3.5 while every round drew its keys; the
        dense selector's: 18.0 / 9.0)."""
        selector = AdaptivePeerSelector(bandwidth, rng=1, prefer_weighted=True)
        with traced():
            result, _, fallback_peak = traced_call(lambda: selector.select(0))
            assert result.used_fallback
            round_index = 1
            while selector.select(round_index).used_fallback:
                round_index += 1
            result, _, connected_peak = traced_call(
                lambda: selector.select(round_index + 1)
            )
            assert not result.used_fallback
        assert fallback_peak <= 6 * MiB
        assert connected_peak <= 2 * MiB


class TestOptimizerScratch:
    @pytest.fixture(scope="class")
    def shard(self):
        return make_blobs(64, num_classes=10, num_features=32, rng=1)

    def workers(self, shard, count):
        return [
            TrainingWorker(
                rank, MLP(32, [32], 10, rng=1), shard, batch_size=16, lr=0.1,
                rng=rank,
            )
            for rank in range(count)
        ]

    def test_binding_allocates_no_per_worker_scratch(self, shard):
        """A batched cluster steps every worker; the parent gave each
        bound optimizer a row-sized scratch anyway (10.9 MiB here)."""
        workers = self.workers(shard, WORKERS)
        with traced():
            bind_arena(workers)
            snapshot = tracemalloc.take_snapshot()
        by_optim = snapshot.filter_traces([tracemalloc.Filter(True, optim.__file__)])
        assert sum(stat.size for stat in by_optim.statistics("filename")) == 0


class TestClusterStep:
    def test_warm_step_holds_no_full_update_scratch(self):
        """The optimizer update runs a fixed-byte chunk of rows at a time,
        so what a warm 1,024-worker step leaves held in ``repro.sim.cluster``
        is its batch buffers and a chunk-sized scratch, not an ``(n, N)``
        one: 5.3 MiB read, 4.0 of it the ``(n, B, d)`` feature buffer
        (10.8 MiB of scratch, 15.1 in all, before the update was chunked)."""
        shard = make_blobs(64, num_classes=10, num_features=32, rng=1)
        workers = [
            TrainingWorker(rank, MLP(32, [32], 10, rng=1), shard, batch_size=16,
                           lr=0.1, momentum=0.9, weight_decay=1e-4, rng=rank)
            for rank in range(WORKERS)
        ]
        parallel.set_num_threads(1)
        try:
            with traced():
                trainer = ClusterTrainer.build(workers)
                for _ in range(2):
                    trainer.step()
                snapshot = tracemalloc.take_snapshot()
        finally:
            parallel.set_num_threads(None)
        held = snapshot.filter_traces(
            [tracemalloc.Filter(True, ClusterTrainer.build.__code__.co_filename)]
        ).statistics("lineno")
        matrix = trainer.arena.data.nbytes
        assert max(stat.size for stat in held) < matrix // 2
        assert sum(stat.size for stat in held) < matrix


class TestConvStep:
    """TinyCNN on 1×10×10 inputs, n = 32, B = 16, float64 (``saps32_cnn``),
    one thread.  The window kernels' workspaces hold every halo, patch
    matrix, GEMM output, fold and pool buffer, and each ReLU keeps its
    mask there, so what a warm step still allocates is the small dense
    head (an eval also allocates its ReLU masks).  Before the workspaces the
    step read 14.0 MiB peak and 4.5 MiB kept, and the eval 4.8 MiB
    peak."""

    @pytest.fixture(scope="class")
    def warm(self):
        partitions, validation, factory, config = instantiate_preset(
            "mnist-cnn", 32, fast=True, samples_per_worker=64,
            validation_samples=2048, seed=1,
        )
        config = dataclasses.replace(config, batch_size=16, momentum=0.9)
        parallel.set_num_threads(1)
        try:
            trainer = ClusterTrainer.build(make_workers(factory, partitions, config))
            vector = trainer.arena.mean_model()
            for _ in range(2):
                trainer.step()
                trainer.evaluate_vector(vector, validation)
            yield trainer, lambda: trainer.evaluate_vector(vector, validation)
        finally:
            parallel.set_num_threads(None)

    def test_warm_step_and_eval_allocate_nothing_block_sized(self, warm):
        """Measured 0.25 MiB peak and 0.03 kept for the step (0.60 and
        0.27 with the ReLU masks allocated per call), 0.26 peak for the
        eval."""
        trainer, evaluate = warm
        with traced():
            _, step_kept, step_peak = traced_call(trainer.step)
            _, _, eval_peak = traced_call(evaluate)
        assert step_peak <= MiB
        assert step_kept <= MiB // 2
        assert eval_peak <= MiB // 2

    def test_block_budget_counts_what_the_workspaces_hold(self, warm):
        trainer, _ = warm
        held = sum(
            buffer.nbytes
            for kernel in trainer.net.kernels if hasattr(kernel, "workspace")
            for buffer in kernel.workspace.values()
        )
        assert trainer._block_rows() == 19  # 32 workers: blocks of 19 and 13
        assert held == trainer._block_rows() * trainer._workspace_bytes
