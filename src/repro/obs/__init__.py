"""``repro.obs`` — unified telemetry: metrics, phases, run traces.

One process-wide (but explicitly installed) recorder unifies the repo's
instrumentation islands — ``EventTrace``, ``ResilienceStats``,
``ShardedArena.stats()``, the network meters — behind stable metric
names (:mod:`repro.obs.registry` documents the schema).  Everything is
off by default: the installed recorder is a :class:`NullRecorder` whose
``phase()`` is a shared no-op, and every mirror helper below returns
immediately, so the disabled path costs a single attribute check
(CI-gated ≤ 2% via the ``obs_overhead`` bench section).

Usage::

    from repro import obs

    recorder = obs.start("trace")        # or "metrics"; "off" uninstalls
    ... run an experiment ...
    profile = recorder.registry.snapshot()
    recorder.trace.write("trace.json")   # chrome://tracing / Perfetto
    obs.stop()

Inside library code::

    with obs.phase("compute"):           # nests; balances on exceptions
        ...
    obs.mirror_network(network)          # cumulative counter mirrors

Telemetry must never touch numerics: nothing in this package draws from
an RNG stream, and all hooks are read-only observers (the tier-1
equivalence suite runs bit-identical with tracing on).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.recorder import NULL_RECORDER, MetricsRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder, validate_trace

__all__ = [
    "MetricsRecorder",
    "MetricsRegistry",
    "TraceRecorder",
    "validate_trace",
    "recorder",
    "enabled",
    "metrics",
    "phase",
    "timed",
    "install",
    "start",
    "stop",
    "inc",
    "set_counter",
    "gauge",
    "observe",
    "end_round",
    "mirror_network",
    "mirror_resilience",
    "mirror_arena",
    "record_worker_timeline",
]

_current = NULL_RECORDER


def recorder():
    """The installed recorder (:data:`NULL_RECORDER` when telemetry is off)."""
    return _current


def enabled() -> bool:
    return _current.enabled


def metrics() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when telemetry is off."""
    return _current.registry


def phase(name: str):
    """Context manager timing one named span on the calling thread."""
    return _current.phase(name)


def timed(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, a span ``name`` only with telemetry on
    (off, not even the null span is entered: per-event hot paths)."""
    if not _current.enabled:
        return fn(*args, **kwargs)
    with _current.phase(name):
        return fn(*args, **kwargs)


def install(new_recorder=None):
    """Install ``new_recorder`` (``None`` → the null recorder); returns
    the previously installed one."""
    global _current
    previous = _current
    _current = new_recorder if new_recorder is not None else NULL_RECORDER
    return previous


def start(mode: str = "metrics") -> MetricsRecorder:
    """Build and install a recorder for ``mode``.

    ``"metrics"`` installs a registry-only recorder; ``"trace"`` adds a
    :class:`TraceRecorder`; ``"off"`` restores the null recorder.
    Returns the installed recorder.
    """
    if mode == "off":
        install(None)
        return _current
    if mode not in ("metrics", "trace"):
        raise ValueError(f"obs mode must be off/metrics/trace, got {mode!r}")
    trace = TraceRecorder() if mode == "trace" else None
    new_recorder = MetricsRecorder(MetricsRegistry(), trace)
    install(new_recorder)
    return new_recorder


def stop():
    """Uninstall telemetry; returns the recorder that was active."""
    return install(None)


# ----------------------------------------------------------------------
# registry conveniences (no-ops when telemetry is off)
# ----------------------------------------------------------------------
def inc(name: str, value: float = 1.0) -> None:
    registry = _current.registry
    if registry is not None:
        registry.inc(name, value)


def set_counter(name: str, value: float) -> None:
    registry = _current.registry
    if registry is not None:
        registry.set_counter(name, value)


def gauge(name: str, value: float) -> None:
    registry = _current.registry
    if registry is not None:
        registry.gauge(name, value)


def observe(name: str, value: float) -> None:
    registry = _current.registry
    if registry is not None:
        registry.observe(name, value)


def end_round(round_index: int) -> None:
    registry = _current.registry
    if registry is not None:
        registry.end_round(round_index)


# ----------------------------------------------------------------------
# mirrors: route the legacy accounting islands through the registry.
# All use absolute cumulative ``set_counter`` mirrors, so re-mirroring
# converges instead of double-counting and per-round deltas stay clean.
# ----------------------------------------------------------------------
def mirror_network(network) -> None:
    """Mirror a :class:`~repro.network.SimulatedNetwork`'s meters."""
    registry = _current.registry
    if registry is None or network is None:
        return
    meter = network.meter
    registry.set_counter("network.bytes_wire", meter.total_bytes)
    registry.set_counter("network.transfers", meter.num_transfers)
    registry.set_counter("network.comm_time_s", network.timer.total_seconds)


def mirror_resilience(stats) -> None:
    """Mirror a :class:`~repro.resilience.ResilienceStats`."""
    registry = _current.registry
    if registry is None or stats is None:
        return
    for name, value in stats.as_metrics().items():
        registry.set_counter(name, value)


def mirror_arena(arena) -> None:
    """Mirror a :class:`~repro.nn.sharded.ShardedArena`'s residency telemetry
    (any object with a compatible ``stats()`` dict works)."""
    registry = _current.registry
    if registry is None or arena is None:
        return
    stats = getattr(arena, "stats", None)
    if stats is None:
        return
    stats = stats()
    for key in (
        "hits",
        "misses",
        "evictions",
        "writebacks",
        "writeback_bytes",
        "pin_contentions",
    ):
        if key in stats:
            registry.set_counter(f"arena.{key}", stats[key])
    for key in ("resident", "stored", "peak_pins"):
        if key in stats:
            registry.gauge(f"arena.{key}", stats[key])


def record_worker_timeline(trace, horizon: float) -> None:
    """Mirror an :class:`~repro.sim.events.EventTrace` into per-worker
    ``worker.<rank>.compute_s`` / ``.comm_s`` counters plus the
    ``run.horizon_s`` gauge — exactly the inputs
    :func:`repro.analysis.timeline.worker_timeline` derives idle time
    and utilization from, so ``obsreport`` reproduces those numbers
    from the registry alone."""
    registry = _current.registry
    if registry is None or trace is None or not trace.totals:
        return
    registry.gauge("run.horizon_s", float(horizon))
    for kind in ("compute", "comm"):
        busy = trace.busy_seconds(kind, horizon)
        for rank, seconds in enumerate(busy):
            registry.set_counter(f"worker.{rank}.{kind}_s", float(seconds))
