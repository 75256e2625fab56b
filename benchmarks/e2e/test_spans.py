"""Self-tests of the benchmark's span tracer and of the layer table.

Fast and collected by the tier-1 run (``pytest`` from the repo root picks
up ``test_*.py`` here); nothing in this file times anything.
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Tracer, root_span, summarize  # noqa: E402


def ticking_clock(step=1.0):
    """A clock that advances ``step`` per reading: spans get exact,
    repeatable durations."""
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_nested_self_times_sum_to_the_root():
    tracer = Tracer(ticking_clock())
    leaf = tracer.wrap(lambda: None, "leaf")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "middle")
    tracer.begin("root")
    middle()
    leaf()
    tracer.end()
    totals = summarize(tracer.spans)
    root = root_span(tracer.spans, "root")
    assert totals["leaf"].calls == 3 and totals["middle"].calls == 1
    assert sum(t.self_s for t in totals.values()) == pytest.approx(
        root[4] - root[3], rel=0.01
    )
    # Each leaf spans one tick; the middle span's own share is what its
    # two leaves do not cover.
    assert totals["leaf"].self_s == 3.0
    assert totals["middle"].busy_s == 5.0 and totals["middle"].self_s == 3.0


def test_recursion_counts_busy_time_once():
    tracer = Tracer(ticking_clock())

    def descend(depth):
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(descend, "recursive")
    tracer.begin("root")
    traced(3)
    tracer.end()
    totals = summarize(tracer.spans)
    root = root_span(tracer.spans, "root")
    outermost = max(
        (s for s in tracer.spans if s[2] == "recursive"), key=lambda s: s[4] - s[3]
    )
    assert totals["recursive"].calls == 4
    assert totals["recursive"].busy_s == outermost[4] - outermost[3]
    assert sum(t.self_s for t in totals.values()) == pytest.approx(
        root[4] - root[3], rel=0.01
    )


def test_exception_still_closes_the_span():
    tracer = Tracer(ticking_clock())

    def boom():
        raise KeyError("inside")

    traced = tracer.wrap(boom, "failing")
    tracer.begin("root")
    with pytest.raises(KeyError):
        traced()
    assert tracer.depth == 1  # only the root is still open
    tracer.end()
    assert [s[2] for s in tracer.spans] == ["failing", "root"]
    assert tracer.spans[0][1] == tracer.spans[1][0]  # parent is the root


def test_summarize_since_drops_the_setup_tree():
    tracer = Tracer(ticking_clock())
    work = tracer.wrap(lambda: None, "work")
    tracer.begin("setup")
    work()
    tracer.end()
    boundary = tracer.clock()
    tracer.begin("run")
    work()
    tracer.end()
    assert summarize(tracer.spans, since=boundary)["work"].calls == 1
    assert set(summarize(tracer.spans, since=boundary)) == {"work", "run"}


def test_by_name_imports_are_rebound_and_everything_is_restored():
    import repro.algorithms.sampled as sampled
    import repro.core.gossip as gossip
    import repro.core.matching as matching
    from repro.sim.events import EventEngine

    originals = {
        "defined": matching.randomly_max_match,
        "by_name": gossip.randomly_max_match,
        "greedy_by_name": sampled.greedy_weighted_matching,
        "method": vars(EventEngine)["schedule"],
    }
    assert originals["defined"] is originals["by_name"]

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert gossip.randomly_max_match is not originals["by_name"]
        assert gossip.randomly_max_match is matching.randomly_max_match
        assert sampled.greedy_weighted_matching is matching.greedy_weighted_matching
        assert vars(EventEngine)["schedule"] is not originals["method"]
        assert tracer.leaked()  # installed: nothing holds its original
        # A rebound by-name import records a span when its module calls it.
        tracer.begin("root")
        import numpy as np

        assert gossip.randomly_max_match(np.ones((2, 2), dtype=bool) ^ np.eye(2, dtype=bool)) == [(0, 1)]
        tracer.end()
        assert summarize(tracer.spans)["core.matching"].calls >= 1
    finally:
        tracer.restore()
    assert tracer.leaked() == []
    assert matching.randomly_max_match is originals["defined"]
    assert gossip.randomly_max_match is originals["by_name"]
    assert sampled.greedy_weighted_matching is originals["greedy_by_name"]
    assert vars(EventEngine)["schedule"] is originals["method"]


def test_wrapping_twice_or_an_inherited_method_is_refused():
    tracer = Tracer()
    tracer.install([("x", "repro.sim.timing:ConstantCompute.step_time")])
    try:
        with pytest.raises(ValueError):
            tracer.install([("x", "repro.sim.timing:ConstantCompute.step_time")])
        with pytest.raises(LookupError):
            # round_time lives on ComputeModel; the table must say so.
            tracer.install([("x", "repro.sim.timing:ConstantCompute.round_time")])
    finally:
        tracer.restore()
    assert tracer.leaked() == []
