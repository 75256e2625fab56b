"""``benchmarks/ab.py``: one smoke pair of this tree against itself on two
workloads, and the exit status when the two trees' trajectories differ
on any of them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_pair_against_itself():
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "ab.py"), str(ROOT),
            str(ROOT), "--smoke", "--pairs", "1",
            "--workload", "saps1024_mlp", "topk16_mlp85k_f32",
        ],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout
    assert "saps1024_mlp, seed 1, 1 pair(s), smoke" in out
    assert "topk16_mlp85k_f32, seed 1, 1 pair(s), smoke" in out
    summary = out.split("summary:\n", 1)[1].splitlines()
    assert summary[0].startswith("  saps1024_mlp: run_s ")
    assert summary[1].startswith("  topk16_mlp85k_f32: run_s ")
    assert all(line.endswith("digests equal") for line in summary[:2])
    assert out.rstrip().endswith("digests equal in every pair")


def test_a_differing_digest_fails(monkeypatch, capsys):
    from benchmarks import ab

    def fake_run(tree, workload, seed, smoke, pycache):
        differs = tree.name == "new" and workload == "second"
        digest = ("b" if differs else "a") * 64
        return {"run_s": 1.0, "steps": 10, "peak_rss_mb": 50.0, "digest": digest}

    monkeypatch.setattr(ab, "run_child", fake_run)
    monkeypatch.setattr(Path, "is_file", lambda self: True)
    argv = ["/trees/base", "/trees/new", "--pairs", "2",
            "--workload", "first", "second"]
    assert ab.main(argv) == 1
    out = capsys.readouterr().out
    assert "  first: run_s 1.000 -> 1.000 s" in out
    assert "  second: run_s" in out and "DIGEST DIFFERS in 2 pair(s)" in out
    assert "FAILED: digest differs on 1 workload(s)" in out
