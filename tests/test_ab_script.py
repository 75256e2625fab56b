"""``benchmarks/ab.py``: one smoke pair of this tree against itself, and
the exit status when the two trees' trajectories differ."""

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
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "digests equal in every pair" in done.stdout
    assert "saps1024_mlp, seed 1, 1 pair(s), smoke" in done.stdout


def test_a_differing_digest_fails(monkeypatch, capsys):
    from benchmarks import ab

    def fake_run(tree, workload, seed, smoke, pycache):
        digest = "b" * 64 if tree.name == "new" else "a" * 64
        return {"run_s": 1.0, "steps": 10, "peak_rss_mb": 50.0, "digest": digest}

    monkeypatch.setattr(ab, "run_child", fake_run)
    monkeypatch.setattr(Path, "is_file", lambda self: True)
    assert ab.main(["/trees/base", "/trees/new", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert out.count("DIGEST DIFFERS") == 2
    assert "FAILED: digest differs in 2 pair(s)" in out
