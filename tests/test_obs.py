"""Tests for the unified telemetry layer (``repro.obs``).

The two CI-gated invariants of the observability work:

* telemetry never touches numerics — every sync algorithm family runs
  bit-identical with ``--obs trace`` vs ``--obs off`` at both dtypes
  and 1/4 threads, and the async event engine is equally untouched;
* the layer is structurally sound — ``phase()`` spans always balance
  (exceptions and thread-pool dispatch included), emitted Chrome
  traces validate, and the ``obsreport`` profile reproduces the event
  engine's own worker-timeline breakdown from recorded metrics alone.
"""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.algorithms import (
    DCDPSGD,
    DPSGD,
    PSGD,
    AsyncDPSGD,
    AsyncFedAvg,
    AsyncGossip,
    FedAvg,
    SAPSPSGD,
    SparseFedAvg,
    TopKPSGD,
)
from repro.analysis.obsreport import (
    obs_worker_timeline,
    phase_table,
    top_counters,
)
from repro.analysis import render_obs_report, worker_timeline
from repro.cli import _resolve_obs_mode
from repro.compression.random_mask import RandomMaskCompressor
from repro.compression.topk import TopKCompressor
from repro.compression.base import BYTES_PER_VALUE
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.network.metrics import TrafficMeter
from repro.nn import MLP
from repro.nn.sharded import ShardedArena
from repro.obs import MetricsRegistry, TraceRecorder, validate_trace
from repro.obs.recorder import NULL_RECORDER, NullRecorder
from repro.resilience import ResilienceStats
from repro.sim import (
    ConstantCompute,
    ExperimentConfig,
    run_event_experiment,
    run_experiment,
)
from repro.utils import parallel
from tests.conftest import scoped

N_WORKERS = 4


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test starts and ends with telemetry off and default threads."""
    obs.install(None)
    yield
    obs.install(None)
    parallel.set_num_threads(None)


def build_setup(seed=0, rounds=6, dtype=None):
    full = make_blobs(num_samples=360, num_classes=4, num_features=8, rng=seed)
    train, validation = full.split(fraction=280 / 360, rng=seed)
    partitions = partition_iid(train, N_WORKERS, rng=seed)
    config = ExperimentConfig(
        rounds=rounds, batch_size=16, lr=0.2, eval_every=3, seed=seed,
        **({"dtype": dtype} if dtype is not None else {}),
    )
    network = SimulatedNetwork(
        N_WORKERS, bandwidth=random_uniform_bandwidth(N_WORKERS, rng=seed)
    )
    factory = lambda: MLP(8, [16], 4, rng=seed)
    return partitions, validation, factory, config, network


ALL_ALGORITHMS = [
    ("psgd", PSGD),
    ("topk-psgd", lambda: TopKPSGD(compression_ratio=50.0)),
    ("fedavg", lambda: FedAvg(participation=0.5, local_steps=3)),
    ("sparse-fedavg",
     lambda: SparseFedAvg(participation=0.5, local_steps=3,
                          compression_ratio=20.0)),
    ("dpsgd", DPSGD),
    ("dcd-psgd", lambda: DCDPSGD(compression_ratio=4.0)),
    ("saps-psgd", lambda: SAPSPSGD(compression_ratio=10.0)),
]

ASYNC_ALGORITHMS = [
    ("async-gossip", lambda: AsyncGossip(compression_ratio=5.0, base_seed=11)),
    ("async-dpsgd", AsyncDPSGD),
    ("async-fedavg", lambda: AsyncFedAvg(local_steps=2)),
    ("async-fedavg-sampled", lambda: AsyncFedAvg(local_steps=2, sample_size=2)),
]


# ======================================================================
# registry
# ======================================================================
class TestMetricsRegistry:
    def test_counters_inc_and_set(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 2.5)
        assert registry.counters.get("a.b", 0.0) == 3.5
        assert registry.counters.get("missing", 0.0) == 0.0
        registry.set_counter("a.b", 10.0)
        assert registry.counters.get("a.b", 0.0) == 10.0

    def test_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.gauge("run.horizon_s", 4.0)
        registry.gauge("run.horizon_s", 8.0)
        assert registry.gauges["run.horizon_s"] == 8.0

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("round.compute_s", value)
        hist = registry.histogram("round.compute_s")
        assert hist == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }
        assert registry.histogram("missing") is None

    def test_end_round_emits_deltas_not_totals(self):
        registry = MetricsRegistry()
        registry.inc("x", 5.0)
        assert registry.end_round(0) == {"x": 5.0}
        registry.inc("x", 2.0)
        registry.set_counter("y", 7.0)
        assert registry.end_round(1) == {"x": 2.0, "y": 7.0}
        # Nothing moved: the round closes empty instead of repeating
        # cumulative totals.
        assert registry.end_round(2) == {}
        assert [r["round"] for r in registry.rounds] == [0, 1, 2]

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("a", 1.0)
        registry.gauge("g", 2.0)
        registry.observe("h", 3.0)
        registry.end_round(0)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"]["a"] == 1.0
        assert snapshot["gauges"]["g"] == 2.0
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["rounds"][0]["counters"] == {"a": 1.0}


# ======================================================================
# install / start / stop lifecycle
# ======================================================================
class TestLifecycle:
    def test_default_is_null_recorder(self):
        assert obs.recorder() is NULL_RECORDER
        assert isinstance(obs.recorder(), NullRecorder)
        assert not obs.enabled()
        assert obs.metrics() is None

    def test_null_path_conveniences_are_noops(self):
        obs.inc("x")
        obs.gauge("g", 1.0)
        obs.observe("h", 1.0)
        obs.end_round(0)
        with obs.phase("a"):
            with obs.phase("b"):
                pass
        assert obs.metrics() is None

    def test_start_stop_roundtrip(self):
        recorder = obs.start("metrics")
        assert obs.recorder() is recorder
        assert obs.enabled()
        assert recorder.trace is None
        assert obs.stop() is recorder
        assert obs.recorder() is NULL_RECORDER

    def test_trace_mode_attaches_trace(self):
        recorder = obs.start("trace")
        assert isinstance(recorder.trace, TraceRecorder)

    def test_off_and_bad_modes(self):
        obs.start("metrics")
        assert obs.start("off") is NULL_RECORDER
        with pytest.raises(ValueError):
            obs.start("verbose")

    def test_scoped_restores_previous(self):
        outer = obs.start("metrics")
        inner = obs.MetricsRecorder(MetricsRegistry(), None)
        with scoped(inner):
            assert obs.recorder() is inner
        assert obs.recorder() is outer


# ======================================================================
# phase spans: the balance property
# ======================================================================
class TestPhaseBalance:
    def test_nested_spans_balance_and_attribute_self_time(self):
        recorder = obs.start("trace")
        with obs.phase("outer"):
            with obs.phase("inner"):
                sum(range(1000))
        assert len(recorder._thread_state().stack) == 0
        registry = recorder.registry
        assert registry.counters.get("phase.outer.count", 0.0) == 1
        assert registry.counters.get("phase.inner.count", 0.0) == 1
        outer_total = registry.counters.get("phase.outer.total_s", 0.0)
        outer_self = registry.counters.get("phase.outer.self_s", 0.0)
        inner_total = registry.counters.get("phase.inner.total_s", 0.0)
        # Self time excludes the child; totals nest.
        assert 0.0 <= outer_self <= outer_total
        assert inner_total <= outer_total
        assert outer_self == pytest.approx(outer_total - inner_total)

    def test_spans_balance_on_exceptions(self):
        recorder = obs.start("trace")
        with pytest.raises(RuntimeError):
            with obs.phase("outer"):
                with obs.phase("inner"):
                    raise RuntimeError("boom")
        assert len(recorder._thread_state().stack) == 0
        # Both frames closed and recorded despite the unwind.
        assert recorder.registry.counters.get("phase.outer.count", 0.0) == 1
        assert recorder.registry.counters.get("phase.inner.count", 0.0) == 1
        # The next span nests fresh, not under a leaked frame.
        with obs.phase("after"):
            pass
        assert len(recorder._thread_state().stack) == 0
        assert recorder.registry.counters.get("phase.after.count", 0.0) == 1

    @pytest.mark.parametrize("threads", [1, 4])
    def test_spans_balance_across_pool_dispatch(self, threads):
        parallel.set_num_threads(threads)
        recorder = obs.start("trace")
        items = list(range(8))
        with obs.phase("fanout"):
            results = parallel.parallel_map(
                lambda i: i * i, items, phase="unit"
            )
        assert results == [i * i for i in items]
        assert len(recorder._thread_state().stack) == 0
        registry = recorder.registry
        assert registry.counters.get("phase.fanout.count", 0.0) == 1
        assert registry.counters.get("phase.unit.count", 0.0) == len(items)
        # Every pool thread closed its spans: the trace validates.
        assert validate_trace(recorder.trace.to_dict()) >= len(items) + 1

    def test_reentrant_sequence_of_spans(self):
        recorder = obs.start("metrics")
        for _ in range(5):
            with obs.phase("loop"):
                pass
        assert len(recorder._thread_state().stack) == 0
        assert recorder.registry.counters.get("phase.loop.count", 0.0) == 5


# ======================================================================
# trace schema
# ======================================================================
class TestTraceRecorder:
    def build(self):
        trace = TraceRecorder()
        trace.add_wall_span("compute", 0.0, 0.5)
        trace.add_wall_span("comm", 0.5, 0.25)
        trace.add_sim_span(0, "compute", 0.0, 1.0)
        trace.add_sim_span(1, "comm", 1.0, 1.5)
        return trace

    def test_to_dict_validates(self):
        data = self.build().to_dict()
        assert validate_trace(data) == 4
        events = [e for e in data["traceEvents"] if e["ph"] == "X"]
        # Wall lanes on pid 0, simulated-time lanes on pid 1.
        assert {e["pid"] for e in events} == {0, 1}

    def test_write_emits_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self.build().write(path)
        assert validate_trace(json.loads(path.read_text())) == 4

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_trace(TraceRecorder().to_dict())

    def test_validate_rejects_missing_keys(self):
        data = self.build().to_dict()
        del data["traceEvents"][-1]["ts"]
        with pytest.raises(ValueError):
            validate_trace(data)

    def test_validate_rejects_unknown_phase_type(self):
        data = self.build().to_dict()
        data["traceEvents"][-1]["ph"] = "B"
        with pytest.raises(ValueError):
            validate_trace(data)

    def test_validate_rejects_negative_duration(self):
        data = self.build().to_dict()
        data["traceEvents"][-1]["dur"] = -1
        with pytest.raises(ValueError):
            validate_trace(data)

    def test_validate_rejects_non_monotone_lane(self):
        trace = TraceRecorder()
        trace.add_wall_span("a", 1.0, 0.1)
        trace.add_wall_span("b", 0.0, 0.1)
        data = trace.to_dict()
        # to_dict sorts lanes; forge an out-of-order lane instead.
        events = [e for e in data["traceEvents"] if e["ph"] == "X"]
        events[0]["ts"], events[1]["ts"] = events[1]["ts"], events[0]["ts"]
        with pytest.raises(ValueError):
            validate_trace(data)


# ======================================================================
# the load-bearing invariant: telemetry never touches numerics
# ======================================================================
class TestBitIdentity:
    def run_history(self, factory, dtype, obs_mode):
        partitions, validation, model_factory, config, network = build_setup(
            dtype=dtype
        )
        algorithm = factory()
        if obs_mode != "off":
            obs.start(obs_mode)
        try:
            result = run_experiment(
                algorithm, partitions, validation, model_factory,
                config, network,
            )
        finally:
            obs.install(None)
        # repr captures every float bit; nan == nan fails under ==.
        return [repr(record) for record in result.history]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "name,factory", ALL_ALGORITHMS, ids=[n for n, _ in ALL_ALGORITHMS]
    )
    @pytest.mark.parametrize("threads", [1, 4])
    def test_sync_families_identical_with_trace(
        self, name, factory, dtype, threads
    ):
        parallel.set_num_threads(threads)
        baseline = self.run_history(factory, dtype, "off")
        traced = self.run_history(factory, dtype, "trace")
        assert traced == baseline

    @pytest.mark.parametrize(
        "name,factory", ASYNC_ALGORITHMS, ids=[n for n, _ in ASYNC_ALGORITHMS]
    )
    def test_async_families_identical_with_trace_and_spanned(
        self, name, factory
    ):
        """Each event-engine family gives the same floats and events
        traced and untraced; the traced run's phase table attributes
        compute, comm, mix and eval, as the sync families' does."""
        def run(obs_mode):
            partitions, validation, model_factory, config, network = (
                build_setup(seed=11)
            )
            if obs_mode != "off":
                obs.start(obs_mode)
            try:
                result = run_event_experiment(
                    factory(), partitions, validation, model_factory,
                    config, network,
                    compute_model=ConstantCompute(0.05), duration=2.0,
                )
                registry = obs.metrics()
                snapshot = registry.snapshot() if registry else {}
            finally:
                obs.install(None)
            history = [repr(record) for record in result.history]
            return (history, result.events_processed), snapshot

        baseline, _ = run("off")
        traced, snapshot = run("trace")
        assert traced == baseline
        phases = {row.name for row in phase_table(snapshot)}
        assert {"compute", "comm", "mix", "eval"} <= phases

    def test_conv_kernels_identical_with_trace_and_spanned(self):
        """The batched kernels take an untimed path when telemetry is off;
        both paths give the same floats, and the timed one names every
        kernel kind and the conv sub-ops."""
        from repro.presets import instantiate_preset

        def run(obs_mode):
            partitions, validation, factory, config = instantiate_preset(
                "mnist-cnn", N_WORKERS, fast=True, samples_per_worker=16,
                validation_samples=16,
            )
            config = dataclasses.replace(
                config, rounds=2, eval_every=1, batch_size=4
            )
            if obs_mode != "off":
                obs.start(obs_mode)
            try:
                result = run_experiment(
                    SAPSPSGD(compression_ratio=10.0), partitions, validation,
                    factory, config, SimulatedNetwork(N_WORKERS),
                )
                registry = obs.metrics()
                counters = registry.snapshot()["counters"] if registry else {}
            finally:
                obs.install(None)
            return [repr(record) for record in result.history], counters

        baseline, _ = run("off")
        traced, counters = run("trace")
        assert traced == baseline

        def count(name):
            return counters.get(f"phase.compute.{name}.count", 0)

        for name in ("conv", "relu", "maxpool", "gap", "linear", "loss",
                     "conv.gather", "conv.gemm"):
            assert count(name) > 0, name
        # One scatter per training pass: TinyCNN's second conv's; the
        # first conv's input gradient has no consumer and is skipped.
        assert count("conv.scatter") == count("loss")

    def test_topk_identical_with_trace_and_spanned(self):
        """A TopK-PSGD run gives the same floats traced and untraced; the
        traced one spans error feedback once per round, with its select
        and residual children, and reports the tie-row counter."""
        def run(obs_mode):
            partitions, validation, model_factory, config, network = (
                build_setup(dtype="float32")
            )
            if obs_mode != "off":
                obs.start(obs_mode)
            try:
                result = run_experiment(
                    TopKPSGD(compression_ratio=50.0), partitions, validation,
                    model_factory, config, network,
                )
                registry = obs.metrics()
                counters = registry.snapshot()["counters"] if registry else {}
            finally:
                obs.install(None)
            return [repr(record) for record in result.history], counters

        baseline, _ = run("off")
        traced, counters = run("trace")
        assert traced == baseline
        rounds = build_setup()[3].rounds
        for name in ("compress", "compress.select", "compress.residual"):
            assert counters[f"phase.{name}.count"] == rounds, name
        assert "compression.topk_tie_rows" in counters


# ======================================================================
# obsreport: the profile rebuilt from metrics alone
# ======================================================================
class TestObsReport:
    def timeline_run(self, algorithm=None, mode="trace"):
        partitions, validation, model_factory, config, network = build_setup(
            seed=3, rounds=4
        )
        recorder = obs.start(mode)
        try:
            result = run_experiment(
                algorithm or SAPSPSGD(compression_ratio=10.0, base_seed=3),
                partitions, validation, model_factory, config, network,
                compute_model=ConstantCompute(0.05),
            )
        finally:
            obs.install(None)
        return result, recorder.registry.snapshot()

    def test_obs_worker_timeline_matches_event_trace(self):
        """Acceptance criterion: ``obsreport`` reproduces ``timeline``'s
        compute/comm/idle breakdown from recorded metrics alone."""
        result, snapshot = self.timeline_run()
        reference = worker_timeline(result.trace, result.horizon)
        rebuilt = obs_worker_timeline(snapshot)
        assert rebuilt == reference

    def test_sync_worker_lanes_use_the_per_transfer_layout(self):
        """A sync ``--obs metrics`` run books each transfer on its own
        link ends (the event engine's convention), not the round barrier
        on everyone: SAPS workers on slow links show more comm_s."""
        result, snapshot = self.timeline_run(mode="metrics")
        rows = obs_worker_timeline(snapshot)
        assert rows == worker_timeline(result.trace, result.horizon)
        barrier = sum(result.round_comm_seconds)
        comm = [row.comm_s for row in rows]
        assert len(set(comm)) > 1
        # tx and rx ends count separately, so a matched worker books at
        # most twice the barrier.
        assert 0 < min(comm) and max(comm) <= 2 * barrier + 1e-12
        assert all(row.compute_s == pytest.approx(4 * 0.05) for row in rows)

    def test_sync_collective_lands_on_every_participant(self):
        """PSGD's all-reduce declares no link ends: every worker books
        the whole collective."""
        result, snapshot = self.timeline_run(PSGD(), mode="metrics")
        rows = obs_worker_timeline(snapshot)
        assert rows == worker_timeline(result.trace, result.horizon)
        barrier = sum(result.round_comm_seconds)
        assert barrier > 0
        assert [row.comm_s for row in rows] == pytest.approx(
            [barrier] * N_WORKERS
        )

    def test_obs_worker_timeline_requires_horizon(self):
        with pytest.raises(ValueError):
            obs_worker_timeline({"counters": {}, "gauges": {}})

    def test_phase_table_shares_sum_to_one(self):
        _, snapshot = self.timeline_run()
        rows = phase_table(snapshot)
        assert rows, "the timeline run recorded no phases"
        names = {row.name for row in rows}
        assert "round" in names
        assert sum(row.share for row in rows) == pytest.approx(1.0)
        for row in rows:
            assert 0.0 <= row.self_s <= row.total_s + 1e-12
            assert row.count >= 1

    def test_top_counters_exclude_phase_and_worker_lanes(self):
        _, snapshot = self.timeline_run()
        top = top_counters(snapshot, limit=50)
        assert top
        for name, _value in top:
            assert not name.startswith("phase.")
            assert not name.startswith("worker.")

    def test_render_obs_report_sections(self):
        _, snapshot = self.timeline_run()
        report = render_obs_report(snapshot)
        assert "phase" in report
        assert "worker" in report
        assert render_obs_report({"counters": {}, "gauges": {}}) == (
            "(no telemetry recorded)"
        )


# ======================================================================
# satellite: legacy accounting islands routed through the registry
# ======================================================================
class TestMirrors:
    def test_traffic_meter_running_totals(self):
        meter = TrafficMeter(4)
        meter.record(0, 0, 1, 1000)
        meter.record(0, 2, TrafficMeter.SERVER, 500)
        assert meter.total_bytes == 1500
        assert meter.num_transfers == 2

    def test_mirror_network_counters(self):
        network = SimulatedNetwork(4)
        network.meter.record(0, 0, 1, 1000)
        obs.start("metrics")
        obs.mirror_network(network)
        registry = obs.metrics()
        assert registry.counters.get("network.bytes_wire", 0.0) == 1000
        assert registry.counters.get("network.transfers", 0.0) == 1
        # Re-mirroring converges: cumulative set, not double-count.
        obs.mirror_network(network)
        assert registry.counters.get("network.bytes_wire", 0.0) == 1000

    def test_resilience_stats_as_metrics(self):
        stats = ResilienceStats(num_workers=4)
        stats.attempted_exchanges = 10
        stats.completed_exchanges = 7
        stats.retries = 3
        metrics = stats.as_metrics()
        assert metrics["exchange.attempted"] == 10.0
        assert metrics["exchange.completed"] == 7.0
        assert metrics["exchange.retries"] == 3.0
        obs.start("metrics")
        obs.mirror_resilience(stats)
        assert obs.metrics().counters.get("exchange.retries", 0.0) == 3.0

    def test_mirror_arena_flows_and_gauges(self):
        arena = ShardedArena(50, 8, capacity=4, retain_evicted=True)
        for client in range(6):
            arena.row(client)[...] = client + 1
        obs.start("metrics")
        obs.mirror_arena(arena)
        registry = obs.metrics()
        stats = arena.stats()
        assert registry.counters.get("arena.evictions", 0.0) == stats["evictions"]
        assert registry.counters.get("arena.writeback_bytes", 0.0) == (
            stats["writeback_bytes"]
        )
        assert registry.gauges["arena.resident"] == stats["resident"]

    def test_mirrors_are_noops_when_disabled(self):
        obs.mirror_network(SimulatedNetwork(2))
        obs.mirror_resilience(ResilienceStats(num_workers=2))
        obs.mirror_arena(None)
        assert obs.metrics() is None


# ======================================================================
# satellite: arena writeback accounting and per-round deltas
# ======================================================================
class TestArenaTelemetry:
    def test_writeback_bytes_counts_evicted_row_bytes(self):
        arena = ShardedArena(50, 8, capacity=4, retain_evicted=True)
        for client in range(6):
            arena.row(client)[...] = client + 1
        stats = arena.stats()
        assert stats["writebacks"] >= 2
        # Each written-back row carries one full float64 row of bytes.
        assert stats["writeback_bytes"] == stats["writebacks"] * 8 * 8

    def test_stats_delta_reports_interval_flows(self):
        arena = ShardedArena(50, 8, capacity=4, retain_evicted=True)
        for client in range(6):
            arena.row(client)[...] = client + 1
        first = arena.stats_delta()
        assert first["misses"] == 6
        assert first["writeback_bytes"] > 0
        # A quiet interval reports zero flow, not run totals.
        quiet = arena.stats_delta()
        assert all(quiet[key] == 0 for key in (
            "hits", "misses", "evictions", "writebacks",
            "writeback_bytes", "pin_contentions",
        ))
        arena.row(0)[...] = 9.0
        assert arena.stats_delta()["misses"] + arena.stats_delta()["hits"] >= 1


# ======================================================================
# satellite: compression payload accounting
# ======================================================================
class TestCompressionMetrics:
    MATRIX = np.arange(4 * 40, dtype=np.float64).reshape(4, 40) / 7.0

    def counters_for(self, run):
        obs.start("metrics")
        try:
            run()
            registry = obs.metrics()
            return {
                name: registry.counters.get(f"compression.{name}", 0.0)
                for name in ("bytes_dense", "bytes_wire", "bytes_saved")
            }
        finally:
            obs.install(None)

    @pytest.mark.parametrize("compress", [
        TopKCompressor(compression_ratio=10.0).compress_matrix,
        lambda matrix: RandomMaskCompressor(
            compression_ratio=10.0
        ).compress_matrix_with_seed(matrix, 0),
    ], ids=["topk", "mask"])
    def test_compressors_record_positive_savings(self, compress):
        counters = self.counters_for(lambda: compress(self.MATRIX))
        assert counters["bytes_dense"] == self.MATRIX.size * BYTES_PER_VALUE
        assert 0 < counters["bytes_wire"] < counters["bytes_dense"]
        assert counters["bytes_saved"] == (
            counters["bytes_dense"] - counters["bytes_wire"]
        )

    def test_fused_gather_parity_with_full_pass(self):
        """``batch_from_values(model_size=...)`` accounts exactly like
        the full-matrix pass it short-circuits."""
        compressor = RandomMaskCompressor(compression_ratio=10.0)
        full = self.counters_for(
            lambda: compressor.compress_matrix_with_seed(self.MATRIX, 21)
        )

        def fused():
            reference = compressor.compress_matrix_with_seed(self.MATRIX, 21)
            obs.metrics().counters.clear()
            compressor.batch_from_values(
                reference.values, reference.indices, 21,
                model_size=self.MATRIX.shape[1],
            )

        assert self.counters_for(fused) == full

    def test_topk_tie_rows_counts_the_argpartition_rows(self):
        matrix = np.array([
            [5.0, 1.0, 4.0, 0.5],    # top 2 unambiguous: threshold
            [3.0, 1.0, -1.0, 0.0],   # tie at the 2nd magnitude
            [0.0, 0.0, 2.0, -0.0],   # one non-zero for k = 2
            [np.nan, 2.0, 7.0, 1.0], # NaN, yet the top 2 is unambiguous
        ])
        obs.start("metrics")
        try:
            TopKCompressor(compression_ratio=2.0).compress_matrix(matrix)
            assert obs.metrics().counters.get("compression.topk_tie_rows", 0.0) == 2
        finally:
            obs.install(None)

    def test_hooks_are_noops_when_disabled(self):
        batch = TopKCompressor(compression_ratio=10.0).compress_matrix(
            self.MATRIX
        )
        assert batch.num_bytes() > 0
        assert obs.metrics() is None


# ======================================================================
# satellite: CLI flag resolution
# ======================================================================
class TestCliObsFlags:
    def resolve(self, **kwargs):
        defaults = {"obs": "off", "metrics_out": None, "trace_out": None}
        defaults.update(kwargs)
        return _resolve_obs_mode(argparse.Namespace(**defaults))

    def test_default_off(self):
        assert self.resolve() == "off"

    def test_explicit_modes_pass_through(self):
        assert self.resolve(obs="metrics") == "metrics"
        assert self.resolve(obs="trace") == "trace"

    def test_trace_out_implies_trace(self):
        assert self.resolve(trace_out="t.json") == "trace"
        assert self.resolve(obs="metrics", trace_out="t.json") == "trace"

    def test_metrics_out_upgrades_off_only(self):
        assert self.resolve(metrics_out="m.json") == "metrics"
        assert self.resolve(obs="trace", metrics_out="m.json") == "trace"
