"""Metrics registry: counters, gauges and histograms under stable names.

One :class:`MetricsRegistry` holds everything a run measured, keyed by
hierarchical dot names (``round.compute_s``, ``arena.evictions``,
``exchange.retries``, ``compression.bytes_saved``).  The registry is the
single source of truth the telemetry layer and every legacy accounting
island (``TrafficMeter``, ``ResilienceStats``, ``ShardedArena.stats()``)
mirror into, so reports drawn from either side can never disagree.

Name schema (documented in the README's Observability section):

* ``phase.<name>.total_s`` / ``.self_s`` / ``.count`` — span timers
  (:meth:`~repro.obs.recorder.MetricsRecorder.phase`); ``self_s``
  excludes nested child spans, so self-times sum to wall time.
* ``network.bytes_wire`` / ``network.transfers`` — every metered
  transfer (mirrors :class:`~repro.network.metrics.TrafficMeter`).
* ``exchange.attempted`` / ``.completed`` / ``.aborted`` / ``.timeout``
  / ``.retries`` / ``.give_ups`` — mirrors
  :class:`~repro.resilience.ResilienceStats`.
* ``compression.bytes_dense`` / ``.bytes_wire`` / ``.bytes_saved`` —
  per ``compress_matrix`` call, dense-equivalent vs shipped payload;
  ``compression.topk_tie_rows`` — top-k rows selected by
  ``argpartition`` because their k-th magnitude was ambiguous, inside
  the ``phase.compress`` / ``.compress.select`` / ``.compress.residual``
  spans of error feedback.
* ``arena.hits`` / ``.misses`` / ``.evictions`` / ``.writebacks`` /
  ``.writeback_bytes`` / ``.pin_contentions`` — cumulative mirrors of
  :meth:`~repro.nn.sharded.ShardedArena.stats` (absolute, via
  :meth:`set_counter`); ``arena.resident`` / ``.stored`` /
  ``.peak_pins`` are gauges (levels, not flows).
* ``peer_selection.select_ms`` (histogram) / ``.fallback_rounds`` /
  ``.second_pass_pairs`` — one ``AdaptivePeerSelector.select`` each;
  ``matching.augment_searches`` / ``.searches_skipped`` — blossom
  searches run, and skipped as twins of a failed root, in the blossoms
  that still run (a ``B*`` round of either matcher, a fallback graph
  with a no-link pair); a fallback round completes in closed form.
* ``mem.<name>.peak_raise_kb`` / gauge ``.peak_rss_kb`` — how far the peak RSS
  rose in span ``<name>`` (``unphased``: outside spans), and the level reached.
* ``round.compute_s`` / ``round.comm_s`` — per-round barrier times
  (histograms); ``run.horizon_s`` / ``run.rounds`` — run gauges.

Thread safety: all mutators take one internal lock, so spans and
counters recorded from pool workers (``repro.utils.parallel``) merge
correctly.  The hot paths only reach here when telemetry is enabled.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class MetricsRegistry:
    """Counters, gauges, histograms and a per-round delta stream."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: Dict[str, List[float]] = {}
        #: Per-round counter deltas, appended by :meth:`end_round` —
        #: the snapshot stream ``repro.analysis`` consumes.
        self.rounds: List[Dict] = []
        self._round_base: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # mutators
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def set_counter(self, name: str, value: float) -> None:
        """Set counter ``name`` to an absolute cumulative ``value``.

        For mirroring sources that keep their own cumulative tallies
        (``ShardedArena.stats()``): repeated mirrors converge instead of
        double-counting, and :meth:`end_round` still sees clean deltas.
        """
        with self._lock:
            self.counters[name] = float(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (a level, not a flow) to ``value``."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation of ``value`` under ``name``."""
        value = float(value)
        with self._lock:
            slot = self._histograms.get(name)
            if slot is None:
                self._histograms[name] = [1, value, value, value]
            else:
                slot[0] += 1
                slot[1] += value
                if value < slot[2]:
                    slot[2] = value
                if value > slot[3]:
                    slot[3] = value

    def end_round(self, round_index: int) -> Dict[str, float]:
        """Close one round: append the counter deltas since the previous
        :meth:`end_round` to :attr:`rounds` and return them."""
        with self._lock:
            deltas = {}
            for name, value in self.counters.items():
                delta = value - self._round_base.get(name, 0.0)
                if delta != 0.0:
                    deltas[name] = delta
            self._round_base = dict(self.counters)
        self.rounds.append({"round": int(round_index), "counters": deltas})
        return deltas

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def histogram(self, name: str) -> Optional[Dict[str, float]]:
        slot = self._histograms.get(name)
        if slot is None:
            return None
        count, total, low, high = slot
        return {
            "count": int(count),
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
        }

    def snapshot(self) -> Dict:
        """Plain-dict dump of everything recorded (JSON-serializable)."""
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            names = list(self._histograms)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {name: self.histogram(name) for name in names},
            "rounds": list(self.rounds),
        }
