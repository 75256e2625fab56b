"""The layer table: which ``repro`` entry points the traced repeat wraps,
and which end-to-end metric each layer is predicted to move, where.

``BENCHMARK.json`` admits only ``name``/``unit``/``better`` per layer
metric, so the predictions live here (and in README.md); ``run.py``
copies them into every ``--out`` file.  A later perf issue cites one
``moves`` row as its claim and one ``bypassed`` row as its no-change
prediction.

Entry points are ``"package.module:Qual.name"`` and name the class that
*defines* the method.  An entry point called more than ~10⁵ times per
run is left out and counted inside its caller's span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from spans import Tracer
from workloads import WORKLOADS


@dataclass(frozen=True)
class Layer:
    name: str
    entry_points: Tuple[str, ...]
    #: ``(end-to-end metric, workload, expected share or effect)``.
    moves: Tuple[Tuple[str, str, str], ...]
    #: Workloads on which a change to this layer should change nothing.
    bypassed: Tuple[str, ...] = ()


ALL = tuple(workload.name for workload in WORKLOADS)

#: Layers whose spans make up the timed region.  ``sim.engine`` is the
#: benchmark's own root span (it opens where ``setup_s`` ends), so it has
#: no entry points; scheduled event actions join ``algorithms`` through
#: the ``EventEngine.schedule`` patch below.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "sim.engine", (),
        tuple(("run_s", w, "self < 5 %: the round/eval loop itself") for w in ALL),
    ),
    Layer(
        "sim.engine.eval",
        (
            "repro.sim.engine:evaluate_consensus",
            "repro.sim.cluster:ClusterTrainer.evaluate_vector",
            "repro.algorithms.sampled:SampledSAPS.evaluate",
        ),
        (("run_s", "saps32_cnn", "busy ~ 8 % (forward pass lands in nn.batched)"),),
        ("saps1024_mlp", "async_gossip32_event"),
    ),
    Layer(
        "algorithms",
        (
            "repro.algorithms.saps_psgd:SAPSPSGD.run_round",
            "repro.algorithms.psgd:TopKPSGD.run_round",
            "repro.algorithms.sampled:SampledSAPS.run_round",
            "repro.algorithms.sampled:LogisticBlobsTask.run_local",
            "repro.algorithms.sampled:LogisticBlobsTask.client_batch",
        ),
        (
            ("run_s", "async_gossip32_event", "handler self ~ 20 %"),
            ("run_s", "sampled_saps100k", "run_local + client_batch ~ 45 %"),
            ("run_s", "saps1024_mlp", "pair loop + scatter ~ 10 %"),
        ),
    ),
    Layer(
        "sim.cluster",
        (
            "repro.sim.cluster:ClusterTrainer.step",
            "repro.sim.cluster:ClusterTrainer.batched_steps",
            "repro.sim.cluster:ClusterTrainer.batched_steps_gather",
            "repro.sim.cluster:ClusterTrainer.compute_gradients",
        ),
        (
            ("run_s", "saps32_cnn", "with nn.batched >= 75 %"),
            ("run_s", "async_gossip32_event", "one-row steps: per-call overhead"),
        ),
        ("sampled_saps100k",),
    ),
    Layer(
        "nn.batched",
        (
            "repro.nn.batched:BatchedSequential.forward",
            "repro.nn.batched:BatchedSequential.backward",
            "repro.nn.batched:BatchedSequential.forward_vector",
            "repro.nn.batched:BatchedCrossEntropyLoss.__call__",
        ),
        (
            ("run_s", "saps32_cnn", "conv kernels: the bulk"),
            ("run_s", "topk16_mlp85k_f32", "Linear kernels ~ 20 %"),
            ("run_s", "async_gossip32_event", "Linear kernels, one row"),
        ),
        ("sampled_saps100k",),
    ),
    Layer(
        "compression",
        (
            "repro.compression.random_mask:generate_mask",
            "repro.compression.random_mask:RandomMaskCompressor.compress_matrix_with_seed",
            "repro.compression.random_mask:RandomMaskCompressor.batch_from_values",
            "repro.compression.error_feedback:BatchedErrorFeedback.compress",
            "repro.compression.topk:TopKCompressor.compress_matrix",
            "repro.compression.topk:top_k_indices_matrix",
            "repro.compression.base:BatchPayload.to_dense",
        ),
        (
            ("run_s", "topk16_mlp85k_f32", ">= 35 %: EF + top-k"),
            ("run_s", "async_gossip32_event", "~ 5 %: a mask per exchange"),
            ("traffic_to_target_mb", "topk16_mlp85k_f32", "via the ratio"),
        ),
        ("saps32_cnn", "saps1024_mlp"),
    ),
    Layer(
        "core.gossip",
        (
            "repro.core.protocol:Coordinator.plan_round",
            "repro.core.gossip:AdaptivePeerSelector.select",
        ),
        (
            ("run_s", "saps1024_mlp", "self ~ 4 %"),
            ("sim_time_to_target_s", "saps32_cnn", "via its choices"),
        ),
        ("topk16_mlp85k_f32", "async_gossip32_event", "sampled_saps100k"),
    ),
    Layer(
        "core.matching",
        (
            "repro.core.matching:max_cardinality_matching",
            "repro.core.matching:randomly_max_match",
            "repro.core.matching:greedy_weighted_matching",
        ),
        (
            ("run_s", "saps1024_mlp", ">= 50 %"),
            ("run_s", "sampled_saps100k", "~ 38 %"),
        ),
        ("saps32_cnn", "topk16_mlp85k_f32", "async_gossip32_event"),
    ),
    Layer(
        "network",
        (
            "repro.network.transport:SimulatedNetwork.exchange",
            "repro.network.transport:SimulatedNetwork.send",
            "repro.network.transport:SimulatedNetwork.send_bytes",
            "repro.network.transport:SimulatedNetwork.finish_round",
            "repro.network.metrics:TrafficMeter.record",
            "repro.sim.events:EventEngine.start_transfer",
        ),
        (
            ("run_s", "saps1024_mlp", "2-5 %"),
            ("run_s", "topk16_mlp85k_f32", "<= 15 %: the O(n^2) meter loop"),
            ("peak_rss_mb", "topk16_mlp85k_f32", "per-transfer records list"),
        ),
        ("sampled_saps100k",),
    ),
    Layer(
        "nn.arena",
        (
            "repro.nn.arena:ParameterArena.mean_model",
            "repro.nn.arena:ParameterArena.consensus_distance",
            "repro.nn.arena:ParameterArena.broadcast_row",
            "repro.nn.arena:ParameterArena.mix",
        ),
        (
            ("run_s", "saps1024_mlp", "~ 3 %"),
            ("peak_rss_mb", "saps1024_mlp", "(n, N) temporaries"),
        ),
        ("sampled_saps100k",),
    ),
    Layer(
        "nn.sharded",
        (
            "repro.nn.sharded:ShardedArena.acquire",
            "repro.nn.sharded:ShardedArena.release",
            "repro.nn.sharded:ShardedArena.evict",
        ),
        (
            ("run_s", "sampled_saps100k", "fault-in + writeback"),
            ("peak_rss_mb", "sampled_saps100k", "resident rows + spill store"),
        ),
        ("saps32_cnn", "saps1024_mlp", "topk16_mlp85k_f32", "async_gossip32_event"),
    ),
    Layer(
        "sim.events",
        (
            "repro.sim.events:EventEngine.run",
            "repro.sim.events:EventEngine.compute_seconds",
            # schedule / schedule_many: see install()
        ),
        (("run_s", "async_gossip32_event", "event loop + scheduling"),),
        ("saps32_cnn", "saps1024_mlp", "topk16_mlp85k_f32", "sampled_saps100k"),
    ),
    Layer(
        "sim.calendar",
        (
            "repro.sim.calendar:CalendarQueue.push",
            "repro.sim.calendar:CalendarQueue.push_many",
            "repro.sim.calendar:CalendarQueue.pop",
            "repro.sim.calendar:CalendarQueue.cancel",
        ),
        (("run_s", "async_gossip32_event", "~ 2 %"),),
        ("saps32_cnn", "saps1024_mlp", "topk16_mlp85k_f32", "sampled_saps100k"),
    ),
    Layer(
        "sim.participation",
        (
            "repro.sim.participation:ParticipationContext.select_round",
            "repro.sim.participation:ParticipationContext.round_mask",
            "repro.sim.participation:ParticipationContext.resident",
            "repro.sim.population:RenewalPopulation.sample_up",
            "repro.sim.population:RenewalPopulation.is_up",
        ),
        (("run_s", "sampled_saps100k", "~ 9 %"),),
        ("saps32_cnn", "saps1024_mlp", "topk16_mlp85k_f32"),
    ),
    Layer(
        "sim.timing",
        (
            "repro.sim.timing:ComputeModel.round_time",
            "repro.sim.timing:ConstantCompute.step_time",
            "repro.sim.timing:HeterogeneousCompute.step_time",
        ),
        (("run_s", "async_gossip32_event", "~ 6 %"),),
        ("saps32_cnn", "saps1024_mlp", "topk16_mlp85k_f32", "sampled_saps100k"),
    ),
)

#: Set-up phases, traced the same way; each becomes ``setup.<phase>_s``
#: (busy time).  ``setup.import_s`` is a timestamp, not a span.
SETUP_PHASES: Dict[str, Tuple[str, ...]] = {
    "data": (
        "repro.data.datasets:make_blobs",
        "repro.data.datasets:make_synthetic_images",
        "repro.data.partition:partition_iid",
        "repro.network.bandwidth:random_uniform_bandwidth",
    ),
    "workers": ("repro.sim.engine:make_workers",),
    "algorithm": ("repro.algorithms.base:DistributedAlgorithm.setup",),
}
SETUP_MOVES = (("setup_s", "saps1024_mlp", "largest: 1024 workers adopted"),)

#: Run-level diagnostics and exact-repeat counts: ``(name, unit, better)``.
DIAGNOSTICS: Tuple[Tuple[str, str, str], ...] = (
    ("network.transfers", "count", "lower"),
    ("network.bytes_wire", "B", "lower"),
    ("compression.bytes_out", "B", "lower"),
    ("sim.events.events", "count", "lower"),
    ("sim.calendar.ops", "count", "lower"),
    ("nn.sharded.hits", "count", "higher"),
    ("nn.sharded.misses", "count", "lower"),
    ("nn.sharded.evictions", "count", "lower"),
    ("nn.sharded.writeback_bytes", "B", "lower"),
    ("nn.sharded.resident_bytes_per_enrolled", "B/client", "lower"),
    ("sim.engine.round_ms_p50", "ms", "lower"),
    ("sim.engine.round_ms_p95", "ms", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("host.offcpu_share", "fraction", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in the order
    ``BENCHMARK.json`` lists them."""
    metrics: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        metrics += [
            (f"{layer.name}.calls", "count", "lower"),
            (f"{layer.name}.busy_s", "s", "lower"),
            (f"{layer.name}.self_s", "s", "lower"),
            (f"{layer.name}.share", "fraction", "lower"),
        ]
    metrics.append(("setup.import_s", "s", "lower"))
    metrics += [(f"setup.{phase}_s", "s", "lower") for phase in SETUP_PHASES]
    metrics += list(DIAGNOSTICS)
    return metrics


def predictions() -> List[Dict[str, object]]:
    """The layer -> end-to-end table as plain data for ``--out`` files."""
    rows = [
        {
            "layer": layer.name,
            "entry_points": list(layer.entry_points),
            "moves": [list(move) for move in layer.moves],
            "bypassed": list(layer.bypassed),
        }
        for layer in LAYERS
    ]
    rows.append(
        {
            "layer": "setup",
            "entry_points": [t for ts in SETUP_PHASES.values() for t in ts],
            "moves": [list(move) for move in SETUP_MOVES],
            "bypassed": [],
        }
    )
    return rows


def install(tracer: Tracer) -> None:
    """Wrap every entry point above on ``tracer``."""
    for layer in LAYERS:
        tracer.install((layer.name, target) for target in layer.entry_points)
    for phase, targets in SETUP_PHASES.items():
        tracer.install((f"setup.{phase}", target) for target in targets)

    # Every action handed to the event engine is algorithm code; the
    # scheduling call itself is the engine's.
    def schedule(original):
        def traced_schedule(self, time, action):
            return original(self, time, tracer.wrap(action, "algorithms"))

        return tracer.wrap(traced_schedule, "sim.events")

    def schedule_many(original):
        def traced_schedule_many(self, events):
            return original(
                self,
                [(time, tracer.wrap(action, "algorithms")) for time, action in events],
            )

        return tracer.wrap(traced_schedule_many, "sim.events")

    tracer.patch("repro.sim.events:EventEngine.schedule", schedule)
    tracer.patch("repro.sim.events:EventEngine.schedule_many", schedule_many)
