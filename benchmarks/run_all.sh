#!/usr/bin/env bash
# The six timing scenarios a whole e2e run cannot see, checked against the
# GATES table in bench_hot_paths.py (exit 1 on any breach); < 70 s, writes
# BENCH_hot_paths.json.  `--full` takes more repeats; other arguments are
# forwarded to benchmarks.bench_hot_paths.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "${1:-}" = "--full" ]; then shift; else set -- --quick "$@"; fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python -m benchmarks.bench_hot_paths "$@"
