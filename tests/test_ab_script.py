"""``benchmarks/ab.py``: one smoke pair of this tree against itself on the
cheapest workload, with equal ``--calls`` counts and each child's minor
faults and system time, and, with the children faked, the two-workload summary, the exit status when the two trees'
trajectories differ on any workload, and the counter comparison."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_pair_against_itself():
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "ab.py"), str(ROOT),
            str(ROOT), "--smoke", "--pairs", "1", "--workload", "saps1024_mlp",
            "--calls",
        ],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout
    assert "saps1024_mlp, seed 1, 1 pair(s), smoke" in out
    calls = next(line for line in out.splitlines()
                 if line.startswith("calls under cProfile: "))
    base, new = calls.split("base ")[1].split(", new ")
    assert int(base) == int(new) > 0
    header = next(line for line in out.splitlines() if line.startswith("pair"))
    for column in ("base faults", "new faults", "base sys", "new sys"):
        assert column in header
    pair = next(line for line in out.splitlines() if line.startswith("   1"))
    base_faults, new_faults, base_sys, new_sys = pair.split()[11:15]
    assert int(base_faults) > 0 and int(new_faults) > 0
    assert float(base_sys) >= 0.0 and float(new_sys) >= 0.0
    assert "minor_faults median " in out and "sys_s median " in out
    summary = out.split("summary:\n", 1)[1].splitlines()
    assert summary[0].startswith("  saps1024_mlp: run_s ")
    assert ", minor_faults " in summary[0] and ", sys_s " in summary[0]
    assert summary[0].endswith(
        f"calls {base} -> {new} (+0.00%), digests equal, counters equal"
    )
    assert out.rstrip().endswith("digests equal in every pair")


def test_a_differing_digest_fails(monkeypatch, capsys):
    from benchmarks import ab

    def fake_run(tree, workload, seed, smoke, pycache):
        differs = tree.name == "new" and workload == "second"
        digest = ("b" if differs else "a") * 64
        return {"run_s": 1.0, "steps": 10, "setup_s": 0.5,
                "peak_rss_mb": 50.0, "minor_faults": 900, "sys_s": 0.125,
                "digest": digest, "counters": {}}

    monkeypatch.setattr(ab, "run_child", fake_run)
    monkeypatch.setattr(Path, "is_file", lambda self: True)
    argv = ["/trees/base", "/trees/new", "--pairs", "2",
            "--workload", "first", "second"]
    assert ab.main(argv) == 1
    out = capsys.readouterr().out
    assert "  first: run_s 1.000 -> 1.000 s" in out
    assert "  second: run_s" in out and "DIGEST DIFFERS in 2 pair(s)" in out
    assert "FAILED: digest differs on 1 workload(s)" in out


def test_summary_states_the_gain_verdict(monkeypatch, capsys):
    """Per pair: run_s, worker_steps_per_s and setup_s of both trees.
    Summary: wins out of the pairs and the median gap against the base
    IQR, for run_s and worker_steps_per_s; GAIN needs both 9/10 wins
    and a gap wider than the IQR."""
    from benchmarks import ab

    base_run_s = iter([2.0, 2.2, 2.1, 2.3, 1.9, 2.0, 2.2, 2.1, 2.0, 2.1])
    new_run_s = iter([1.0, 1.1, 1.2, 1.0, 2.5, 1.1, 1.0, 1.2, 1.1, 1.0])

    def fake_run(tree, workload, seed, smoke, pycache):
        run_s = next(base_run_s if tree.name == "base" else new_run_s)
        return {"run_s": run_s, "steps": 100, "setup_s": 0.25,
                "peak_rss_mb": 50.0, "sys_s": 0.25,
                "minor_faults": 4000 if tree.name == "base" else 400,
                "digest": "a" * 64,
                "counters": {"network.transfers": 7}}

    monkeypatch.setattr(ab, "run_child", fake_run)
    monkeypatch.setattr(Path, "is_file", lambda self: True)
    assert ab.main(["/trees/base", "/trees/new", "--pairs", "10",
                    "--workload", "w"]) == 0
    out = capsys.readouterr().out
    first_pair = next(line for line in out.splitlines()
                      if line.startswith("   1  base"))
    assert first_pair.split()[2:9] == [
        "2.000", "1.000", "-50.0%", "50.0", "100.0", "0.250", "0.250",
    ]
    summary = out.split("summary:\n", 1)[1].splitlines()[0]
    assert summary.startswith("  w: run_s 2.100 -> 1.100 s")
    # Pair 5 is lost: 9 of 10 is still enough.
    assert "new better in 9/10, median gap +1, base IQR 0.2: GAIN" in summary
    assert "worker_steps_per_s 47.6 -> 90.9 (new better in 9/10" in summary
    assert "setup_s 0.250 -> 0.250" in summary
    assert "minor_faults 4000 -> 400, sys_s 0.250 -> 0.250" in summary
    assert summary.endswith("digests equal, counters equal")
    assert ab.verdict([1.0, 1.0], [1.0, 1.0], lower_is_better=True).endswith(
        "no gain"
    )


def test_differing_counters_are_named_but_do_not_fail(monkeypatch, capsys):
    """Equal digests, but the new tree's arena evicts differently: the
    summary names each differing counter with both trees' values, and the
    exit status stays digest-based."""
    from benchmarks import ab

    def fake_run(tree, workload, seed, smoke, pycache):
        new = tree.name == "new"
        counters = {"network.transfers": 40, "nn.sharded.hits": 9 if new else 8,
                    "nn.sharded.evictions": 3 if new else 5}
        if new:
            counters["sim.events.events"] = 12
        return {"run_s": 1.0, "steps": 10, "setup_s": 0.5,
                "peak_rss_mb": 50.0, "minor_faults": 900, "sys_s": 0.125,
                "digest": "a" * 64, "counters": counters}

    monkeypatch.setattr(ab, "run_child", fake_run)
    monkeypatch.setattr(Path, "is_file", lambda self: True)
    assert ab.main(["/trees/base", "/trees/new", "--pairs", "2",
                    "--workload", "w"]) == 0
    out = capsys.readouterr().out
    summary = out.split("summary:\n", 1)[1].splitlines()[0]
    assert summary.endswith(
        "digests equal, counters differ: nn.sharded.evictions 5 -> 3, "
        "nn.sharded.hits 8 -> 9, sim.events.events None -> 12"
    )
    assert out.rstrip().endswith("digests equal in every pair")
