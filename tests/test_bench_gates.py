"""The gate table of ``benchmarks/bench_hot_paths.py`` against
hand-written reports — no scenario runs, nothing is timed."""

import copy

import pytest

from benchmarks.bench_hot_paths import GATES, check_gates

#: Readings that satisfy every row on a two-core box.
PASSING = {
    "cpu_count": 2,
    "threads_scaling": {"speedup_4": 0.9},
    "obs_overhead": {"overhead_disabled": 0.001, "overhead_enabled": 0.04},
    "event_throughput": {"speedup": 2.5},
    "fault_round": {"extra_events": 0, "overhead": 0.01},
    "peer_selection": {
        "worst_over_median_default": 2.3, "worst_over_median_weighted": 2.7,
        "peak_mib_weighted": 4.7,
    },
    "substream_seeding": {"speedup_512": 3.9, "cost_ratio_1": 0.95},
}

#: One breaching reading per gate row, with the floor its message names.
BREACHES = [
    ("threads_scaling", "speedup_4", 0.4, ">= 0.5"),
    ("obs_overhead", "overhead_disabled", 0.03, "<= 0.02"),
    ("obs_overhead", "overhead_enabled", 0.106, "<= 0.1"),
    ("event_throughput", "speedup", 1.7, ">= 1.8"),
    ("fault_round", "extra_events", 3, "== 0"),
    ("fault_round", "overhead", 0.07, "<= 0.05"),
    ("peer_selection", "worst_over_median_default", 93.0, "<= 10"),
    ("peer_selection", "worst_over_median_weighted", 5.2, "<= 5"),
    ("peer_selection", "peak_mib_weighted", 31.0, "<= 6"),
    ("substream_seeding", "speedup_512", 2.9, ">= 3"),
    ("substream_seeding", "cost_ratio_1", 1.2, "<= 1.15"),
]


def breached(report):
    return [message for holds, message in check_gates(report) if not holds]


def test_passing_report_holds_every_row():
    rows = check_gates(PASSING)
    assert len(rows) == len(GATES)
    assert all(holds for holds, _ in rows)


def test_every_gate_row_has_a_breaching_case():
    assert [(s, f) for s, f, _, _ in BREACHES] == [(s, f) for s, f, _, _ in GATES]


@pytest.mark.parametrize("section, field, reading, floor", BREACHES)
def test_each_row_trips_and_names_itself(section, field, reading, floor):
    report = copy.deepcopy(PASSING)
    report[section][field] = reading
    (message,) = breached(report)
    assert f"{section}.{field} = {reading:.4g} BREACHES {floor}" in message


def test_every_breached_row_is_listed_not_just_the_first():
    report = copy.deepcopy(PASSING)
    for section, field, reading, _ in BREACHES:
        report[section][field] = reading
    messages = breached(report)
    assert len(messages) == len(BREACHES)
    for message, (section, field, _, floor) in zip(messages, BREACHES):
        assert f"{section}.{field}" in message and floor in message


def test_missing_section_or_field_is_a_breach():
    report = copy.deepcopy(PASSING)
    del report["event_throughput"]
    del report["fault_round"]["overhead"]
    assert breached(report) == [
        "event_throughput.speedup = missing BREACHES >= 1.8 (cpu_count=2)",
        "fault_round.overhead = missing BREACHES <= 0.05 (cpu_count=2)",
    ]


@pytest.mark.parametrize(
    "cpu_count, speedup_4, holds",
    [(2, 0.9, True), (1, 0.4, False), (4, 0.9, False), (4, 1.9, True),
     (None, 0.9, True)],
)
def test_threads_scaling_floor_follows_cpu_count(cpu_count, speedup_4, holds):
    """≥ 4 cores must show real scaling (1.8×); smaller boxes — or a
    report without the count — only "threading does not wreck serial"."""
    report = copy.deepcopy(PASSING)
    report["cpu_count"] = cpu_count
    report["threads_scaling"]["speedup_4"] = speedup_4
    assert (breached(report) == []) is holds
    floor = 1.8 if (cpu_count or 1) >= 4 else 0.5
    assert f">= {floor}" in check_gates(report)[0][1]
