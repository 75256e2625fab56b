"""``python -m tests.golden regen REV``: rewrite ``expected.json`` from
commit ``REV``.

``git archive REV`` is extracted to a temporary directory, and every row
of this checkout's case table runs in one subprocess whose ``PYTHONPATH``
is that tree's ``src`` plus this checkout's root (for the ``tests``
package).  The subprocess refuses to run unless ``repro`` imports from the
extracted tree, so an installed copy can never be measured instead.  The
first line is the numerics key the rows ran under (this checkout's
``repro.utils.numerics`` in the subprocess's environment); one line per
row then says ``equal`` or ``moved`` (old -> new final loss and
accuracy), or ``new`` / ``removed`` for a row only one side has.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from tests.golden import EXPECTED_PATH

ROOT = Path(__file__).resolve().parents[2]

#: Run in the subprocess: ``argv`` is the extracted tree and the file the
#: measurements go to.
CHILD = """
import json, sys
from pathlib import Path
import repro
from tests.golden import ROWS, measure
tree = Path(sys.argv[1]).resolve()
if not Path(repro.__file__).resolve().is_relative_to(tree):
    sys.exit(f"repro imports from {repro.__file__}, not from {tree}")
Path(sys.argv[2]).write_text(json.dumps({name: measure(name) for name in ROWS}))
"""


def extract(rev: str, into: Path) -> Path:
    """The files of commit ``rev`` of this checkout, extracted to
    ``into / "tree"``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    tree = into / "tree"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def _final(row: dict) -> str:
    accuracy = "-" if row["accuracy"] is None else f"{100 * row['accuracy']:.2f} %"
    return f"loss {row['loss']:.6g}, acc {accuracy}"


def regen(rev: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tree = extract(rev, Path(tmp))
        out = Path(tmp) / "rows.json"
        env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{ROOT}"}
        key = subprocess.run(
            [sys.executable, "-m", "repro.utils.numerics"], check=True, cwd=ROOT,
            env={**env, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        ).stdout.strip()
        print(f"numerics: {key}")
        subprocess.run(
            [sys.executable, "-c", CHILD, str(tree), str(out)],
            check=True, cwd=ROOT, env=env,
        )
        rows = json.loads(out.read_text())
    old = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    width = max(map(len, [*rows, *old]))
    for name, row in rows.items():
        if name not in old:
            status = "new"
        elif old[name]["digest"] == row["digest"]:
            status = "equal"
        else:
            status = f"moved  {_final(old[name])} -> {_final(row)}"
        print(f"{name:<{width}}  {status}")
    for name in old:
        if name not in rows:
            print(f"{name:<{width}}  removed")
    EXPECTED_PATH.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "regen":
        sys.exit("usage: python -m tests.golden regen REV")
    regen(sys.argv[2])
