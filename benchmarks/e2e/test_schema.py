"""Schema tests: ``BENCHMARK.json`` against the driver's contract and
against the benchmark's own tables, plus a ``--smoke`` run of every
workload through the real runner (seconds, not minutes)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = (
    "setup_s", "run_s", "worker_steps_per_s", "peak_rss_mb",
    "sim_time_to_target_s", "traffic_to_target_mb", "final_accuracy",
    "ok_share",
)


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_benchmark_json_matches_the_benchmarks_own_tables():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert len(BENCHMARK["workloads"]) == 5
    assert tuple(e["name"] for e in BENCHMARK["end_to_end"]) == END_TO_END
    assert len(BENCHMARK["per_layer"]) <= 128
    assert [
        (e["name"], e["unit"], e["better"]) for e in BENCHMARK["per_layer"]
    ] == layers.per_layer_metrics()


def test_every_layer_names_the_metric_and_workload_it_should_move():
    known = {w.name for w in workloads.WORKLOADS}
    for row in layers.predictions():
        assert row["moves"], row["layer"]
        for metric, workload, _ in row["moves"]:
            assert metric in END_TO_END and workload in known, row["layer"]
        assert set(row["bypassed"]) <= known
        moved = {workload for _, workload, _ in row["moves"]}
        assert not moved & set(row["bypassed"]), row["layer"]


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_smoke_run_prints_every_metric(workload):
    """One untraced and one traced repeat at smoke size: the last line is
    the driver's JSON object with every per-layer metric, the checks pass
    (digest equality between traced and untraced included)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "8", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {e["name"] for e in BENCHMARK["per_layer"]}
    for name in END_TO_END:  # printed by name with its unit, too
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+\S+", done.stdout, re.M)
    assert "digest_equal_across_repeats" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "saps32_cnn",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
