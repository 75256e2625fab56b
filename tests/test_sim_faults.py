"""Tests for timed fault plans: grammar, validation, round windows."""

import numpy as np
import pytest

from repro.algorithms import SAPSPSGD
from repro.sim.faults import FaultEvent, FaultPlan


class TestFaultEvent:
    def test_link_normalized_unordered(self):
        event = FaultEvent(1.0, "link_down", link=(3, 1))
        assert event.link == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, "explode", worker=0)
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(float("nan"), "crash", worker=0)
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(-1.0, "crash", worker=0)
        with pytest.raises(ValueError, match="needs a worker"):
            FaultEvent(0.0, "crash")
        with pytest.raises(ValueError, match="needs a link"):
            FaultEvent(0.0, "link_down")
        with pytest.raises(ValueError, match="distinct"):
            FaultEvent(0.0, "link_down", link=(2, 2))


class TestFaultPlanValidation:
    def test_events_sorted_by_time_stable(self):
        plan = FaultPlan(
            4,
            [
                FaultEvent(5.0, "crash", worker=1),
                FaultEvent(2.0, "crash", worker=0),
                FaultEvent(5.0, "recover", worker=0),
            ],
        )
        assert [e.time for e in plan.events] == [2.0, 5.0, 5.0]
        # Stable: simultaneous events keep listed order.
        assert plan.events[1].kind == "crash"
        assert plan.events[2].kind == "recover"

    def test_double_crash_rejected(self):
        with pytest.raises(ValueError, match="crashes twice"):
            FaultPlan(
                3,
                [
                    FaultEvent(1.0, "crash", worker=0),
                    FaultEvent(2.0, "crash", worker=0),
                ],
            )

    def test_recover_without_crash_rejected(self):
        with pytest.raises(ValueError, match="without a preceding crash"):
            FaultPlan(3, [FaultEvent(1.0, "recover", worker=0)])

    def test_link_alternation_enforced(self):
        with pytest.raises(ValueError, match="down twice"):
            FaultPlan(
                3,
                [
                    FaultEvent(1.0, "link_down", link=(0, 1)),
                    FaultEvent(2.0, "link_down", link=(1, 0)),
                ],
            )
        with pytest.raises(ValueError, match="without going down"):
            FaultPlan(3, [FaultEvent(1.0, "link_up", link=(0, 1))])

    def test_out_of_range_worker_rejected(self):
        with pytest.raises(ValueError, match="workers 0..2"):
            FaultPlan(3, [FaultEvent(1.0, "crash", worker=3)])
        with pytest.raises(ValueError, match="workers 0..2"):
            FaultPlan(3, [FaultEvent(1.0, "link_down", link=(0, 5))])

    def test_too_few_workers_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            FaultPlan(1)


class TestFaultPlanQueries:
    def _plan(self):
        return FaultPlan(
            4,
            [
                FaultEvent(2.0, "crash", worker=1),
                FaultEvent(5.0, "recover", worker=1),
                FaultEvent(8.0, "crash", worker=1),
                FaultEvent(3.0, "link_down", link=(0, 2)),
                FaultEvent(6.0, "link_up", link=(0, 2)),
            ],
        )

    def test_down_intervals_half_open_and_unclosed(self):
        plan = self._plan()
        assert plan.down_intervals(1) == [(2.0, 5.0), (8.0, float("inf"))]
        assert plan.down_intervals(0) == []

    def test_up_at(self):
        plan = self._plan()
        assert plan.up_during(1, 1.9, 1.95)
        assert not plan.up_during(1, 2.0, 2.05)  # crash instant counts as down
        assert plan.up_during(1, 5.0, 5.05)  # recovery instant counts as up
        assert not plan.up_during(1, 100.0, 100.05)  # never recovered after t=8

    def test_link_intervals_and_link_up_at(self):
        plan = self._plan()
        assert plan.link_down_intervals(2, 0) == [(3.0, 6.0)]
        assert not plan.link_up_during(0, 2, 4.0, 4.0 + 1e-9)
        assert plan.link_up_during(0, 2, 6.0, 6.0 + 1e-9)
        assert plan.link_up_during(1, 3, 4.0, 4.0 + 1e-9)  # untouched link

    def test_crash_count_and_is_empty(self):
        assert sum(event.kind == "crash" for event in self._plan().events) == 2
        assert not self._plan().is_empty
        assert FaultPlan(3).is_empty


class TestFromRates:
    def test_deterministic_given_seed(self):
        first = FaultPlan.from_rates(6, mttf=5.0, mttr=2.0, horizon=50.0, seed=3)
        second = FaultPlan.from_rates(6, mttf=5.0, mttr=2.0, horizon=50.0, seed=3)
        assert first.events == second.events
        third = FaultPlan.from_rates(6, mttf=5.0, mttr=2.0, horizon=50.0, seed=4)
        assert first.events != third.events

    def test_spawn_key_stability(self):
        """Adding workers never perturbs an existing worker's raw
        failure process (independent per-worker substreams)."""
        small = FaultPlan.from_rates(
            4, mttf=8.0, mttr=2.0, horizon=40.0, seed=1, min_up=1
        )
        large = FaultPlan.from_rates(
            8, mttf=8.0, mttr=2.0, horizon=40.0, seed=1, min_up=1
        )
        for rank in range(4):
            # min_up=1 with these rates rarely trips the quorum sweep for
            # low ranks; their intervals must coincide exactly.
            assert small.down_intervals(rank) == large.down_intervals(rank)

    def test_quorum_never_broken(self):
        plan = FaultPlan.from_rates(
            5, mttf=1.0, mttr=5.0, horizon=30.0, seed=0, min_up=3
        )
        alive = plan.num_workers
        for event in plan.events:
            if event.kind == "crash":
                alive -= 1
            elif event.kind == "recover":
                alive += 1
            assert alive >= 3

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FaultPlan.from_rates(4, mttf=0.0, mttr=1.0, horizon=10.0)
        with pytest.raises(ValueError, match="positive"):
            FaultPlan.from_rates(4, mttf=1.0, mttr=1.0, horizon=-1.0)
        # A non-finite rate or horizon would draw nothing or never stop.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mttf must be positive and finite"):
                FaultPlan.from_rates(4, mttf=bad, mttr=1.0, horizon=10.0)
            with pytest.raises(ValueError, match="mttr must be positive and finite"):
                FaultPlan.from_rates(4, mttf=1.0, mttr=bad, horizon=10.0)
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                FaultPlan.from_rates(4, mttf=1.0, mttr=1.0, horizon=bad)
        with pytest.raises(ValueError, match="min_up"):
            FaultPlan.from_rates(4, mttf=1.0, mttr=1.0, horizon=10.0, min_up=9)


class TestParse:
    def test_none_empty_and_none_literal(self):
        assert FaultPlan.parse(None, 4) is None
        assert FaultPlan.parse("", 4) is None
        assert FaultPlan.parse("  none ", 4) is None

    def test_scripted_grammar(self):
        plan = FaultPlan.parse(
            "crash:1@2.5, recover:1@6, link_down:0-3@1, link_up:3-0@4", 4
        )
        kinds = [event.kind for event in plan.events]
        assert kinds == ["link_down", "crash", "link_up", "recover"]
        assert plan.events[1].worker == 1
        assert plan.events[0].link == (0, 3)

    def test_rate_grammar(self):
        plan = FaultPlan.parse("mttf=4,mttr=1,seed=2,min-up=3", 6, horizon=40.0)
        twin = FaultPlan.from_rates(
            6, mttf=4.0, mttr=1.0, horizon=40.0, seed=2, min_up=3
        )
        assert plan.events == twin.events

    def test_parse_errors_are_friendly(self):
        with pytest.raises(ValueError, match="cannot parse fault event"):
            FaultPlan.parse("crash:xyz@10", 4)
        with pytest.raises(ValueError, match="unknown fault-plan parameter"):
            FaultPlan.parse("mttf=3,volts=9", 4)
        with pytest.raises(ValueError, match="needs mttf= and mttr="):
            FaultPlan.parse("mttf=3", 4)

    def test_unparsable_event_names_the_token_and_the_spec(self):
        with pytest.raises(ValueError) as error:
            FaultPlan.parse("crash:1@2,crash:x@3", 4)
        message = str(error.value)
        assert "'crash:x@3'" in message
        assert "'crash:1@2,crash:x@3'" in message
        assert "{spec" not in message

    def test_non_numeric_rate_names_the_parameter_and_the_spec(self):
        with pytest.raises(ValueError) as error:
            FaultPlan.parse("mttf=abc,mttr=5", 4)
        message = str(error.value)
        assert "mttf=" in message and "'abc'" in message
        assert "'mttf=abc,mttr=5'" in message


class TestRoundProjections:
    """Synchronous SAPS reads the plan over each round's window
    ``[rΔ, rΔ + Δ)``."""

    def _saps(self, round_duration=1.0):
        plan = FaultPlan(
            4,
            [
                FaultEvent(2.5, "crash", worker=2),
                FaultEvent(4.2, "recover", worker=2),
                FaultEvent(1.0, "link_down", link=(0, 1)),
                FaultEvent(3.0, "link_up", link=(0, 1)),
            ],
        )
        return SAPSPSGD(fault_plan=plan, round_duration=round_duration)

    def test_churn_marks_partial_round_overlap_down(self):
        saps = self._saps()
        np.testing.assert_array_equal(
            saps.round_active(2), [True, True, False, True]  # dies at 2.5
        )
        np.testing.assert_array_equal(
            saps.round_active(4), [True, True, False, True]  # back mid-round
        )
        assert saps.round_active(5).all()
        # At Δ = 0.5, round 5 is [2.5, 3.0): the crash instant is down.
        assert not self._saps(0.5).round_active(5)[2]
        assert self._saps(0.5).round_active(4)[2]

    def test_loss_is_deterministic_window_overlap(self):
        saps = self._saps()
        assert saps.exchange_lost(1, 0, 1)
        assert saps.exchange_lost(2, 1, 0)
        assert not saps.exchange_lost(3, 0, 1)  # up at exactly t=3
        assert not saps.exchange_lost(1, 2, 3)
        assert not saps.exchange_lost(0, 0, 1)  # down at exactly t=1

    def test_self_loop_exchange_never_fails(self):
        assert not self._saps().exchange_lost(1, 0, 0)

    def test_round_duration_validated(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="round_duration must be positive"):
                self._saps(bad)

    def test_window_queries_match_the_point_queries(self):
        plan = self._saps().fault_plan
        for time in np.arange(0.0, 6.0, 0.25):
            for rank in range(4):
                assert plan.up_during(rank, time, time + 1e-9) == (
                    not any(start <= time < end for start, end in plan.down_intervals(rank))
                )
            assert plan.link_up_during(0, 1, time, time + 1e-9) == (
                not any(start <= time < end for start, end in plan.link_down_intervals(0, 1))
            )
