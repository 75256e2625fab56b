"""Every row of the golden registry (``tests/golden``) reproduces its
digest in ``tests/golden/expected.json``: library rows at 1 and 4
threads, ``cli`` rows at the ambient thread count.  Top-k's row-block
size never shows either.  A declared stream break rewrites the table with
``python -m tests.golden regen REV``."""

from __future__ import annotations

import pytest

from golden import ROWS, digest, expected, run_row
from repro.compression import topk
from repro.utils import parallel, rng

EXPECTED = expected()
LIBRARY = [name for name, (builder, _) in ROWS.items() if builder != "cli"]
CLI = [name for name, (builder, _) in ROWS.items() if builder == "cli"]


def _digest_at(name: str, threads: int) -> str:
    parallel.set_num_threads(threads)
    try:
        return digest(run_row(name))
    finally:
        parallel.set_num_threads(None)


def test_every_row_has_an_expected_digest():
    assert list(EXPECTED) == list(ROWS)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", LIBRARY)
def test_library_row(name, threads):
    assert _digest_at(name, threads) == EXPECTED[name]["digest"]


@pytest.mark.parametrize("name", CLI)
def test_cli_row(name):
    assert digest(run_row(name)) == EXPECTED[name]["digest"]


@pytest.mark.parametrize("block_rows", [1, 16])
@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", ["sync-topk-f32", "sync-dcd-f32"])
def test_topk_block_rows_never_show(monkeypatch, name, threads, block_rows):
    monkeypatch.setattr(topk, "TOPK_BLOCK_ROWS", block_rows)
    assert _digest_at(name, threads) == EXPECTED[name]["digest"]


@pytest.mark.parametrize(
    "name", [name for name, (builder, _) in ROWS.items() if builder.startswith("sampled")]
)
def test_sampled_rows_seed_on_both_sides_of_the_crossover(monkeypatch, name):
    """Each sampled row pins both seeding paths: some passes seed fewer
    than ``rng.VECTOR_MIN_SEEDS`` keys (Python ints), some at least that
    many (uint64 lanes)."""
    sizes = []
    seeded = rng.pcg64_states
    monkeypatch.setattr(
        rng, "pcg64_states", lambda seeds: sizes.append(len(seeds)) or seeded(seeds)
    )
    assert digest(run_row(name)) == EXPECTED[name]["digest"]
    assert min(sizes) < rng.VECTOR_MIN_SEEDS <= max(sizes)
