"""Invariants of SAPS-PSGD, checked on generated runs.

One strategy draws a run — ``n`` from 3 to 12 workers, ``c`` ∈ {1, 4,
100}, 2–4 rounds, float32 or float64, ``T_thres`` from 1 to 3 — and
three properties must hold in every round:

* **Eq. 7 moves no mass.**  The pairwise average leaves each column sum
  of the replica matrix where it was, within ``eps·Σ|x|`` of the
  column (sums taken exactly, with ``math.fsum``).
* **Traffic balances.**  Bytes sent = bytes received =
  ``network.bytes_wire`` = two payloads of ``k`` values per merged pair,
  summed over the rounds so far.
* **Matchings are disjoint and maximum.**  Algorithm 3's first pass on
  its candidate graph (``B*`` in a connected round, the links between
  recently-connected components in a fallback round), and the whole
  round's matching on the linked graph, each as large as the blossom of
  ``tests/reference/matching.py`` finds.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SAPSPSGD, saps_psgd
from repro.compression.base import BYTES_PER_VALUE
from repro.core.gossip import AdaptivePeerSelector, average_pairs
from repro.core.matching import is_valid_matching
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork, random_uniform_bandwidth
from repro.nn import MLP
from repro.sim import ExperimentConfig, make_workers
from tests.reference.matching import max_cardinality_matching


def exact_column_sums(replicas):
    return np.array([math.fsum(column) for column in replicas.T.astype(np.float64)])


def check_maximum(matching, graph):
    """``matching`` uses only edges of ``graph``, no worker twice, and is
    as large as the blossom's."""
    assert is_valid_matching(matching, len(graph))
    assert all(graph[a, b] for a, b in matching)
    assert len(matching) == len(max_cardinality_matching(graph))


class Recorder:
    """Wraps the merge and the selector's first pass, checking each call
    and tallying the bytes the merges imply."""

    def __init__(self):
        self.expected_bytes = 0
        self._match = AdaptivePeerSelector._match

    def merge(self, replicas, left, right, indices):
        before = exact_column_sums(replicas)
        scale = exact_column_sums(np.abs(replicas))
        average_pairs(replicas, left, right, indices)
        drift = np.abs(exact_column_sums(replicas) - before)
        assert np.all(drift <= np.finfo(replicas.dtype).eps * scale)
        self.expected_bytes += 2 * left.size * indices.size * BYTES_PER_VALUE

    def first_pass(self, selector, connected, labels, active):
        matching = self._match(selector, connected, labels, active)
        if connected:
            graph = selector.filtered
        else:
            graph = (labels[:, None] != labels) & (selector.bandwidth > 0)
        check_maximum(matching, graph)
        return matching


@st.composite
def saps_runs(draw):
    return dict(
        num_workers=draw(st.integers(3, 12)),
        ratio=draw(st.sampled_from([1.0, 4.0, 100.0])),
        rounds=draw(st.integers(2, 4)),
        dtype=draw(st.sampled_from(["float32", "float64"])),
        gap=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=40, deadline=None)
@given(saps_runs())
def test_saps_round_invariants(run):
    n, seed = run["num_workers"], run["seed"]
    data = make_blobs(num_samples=16 * n, num_classes=3, num_features=5, rng=seed)
    config = ExperimentConfig(batch_size=4, lr=0.3, seed=seed, dtype=run["dtype"])
    workers = make_workers(
        lambda: MLP(5, [6], 3, rng=seed, dtype=run["dtype"]),
        partition_iid(data, n, rng=seed), config,
    )
    network = SimulatedNetwork(n, bandwidth=random_uniform_bandwidth(n, rng=seed))
    algorithm = SAPSPSGD(
        compression_ratio=run["ratio"], connectivity_gap=run["gap"], base_seed=seed
    )
    algorithm.setup(workers, network, rng=seed)
    linked = network.bandwidth > 0
    recorder = Recorder()
    with mock.patch.object(saps_psgd, "average_pairs", recorder.merge), \
            mock.patch.object(
                AdaptivePeerSelector, "_match",
                lambda selector, *args: recorder.first_pass(selector, *args),
            ):
        for round_index in range(run["rounds"]):
            algorithm.run_round(round_index)
            _, pairs = algorithm.coordinator.selector._recent[-1]
            check_maximum([tuple(pair) for pair in pairs.tolist()], linked)
            meter = network.meter
            assert meter._sent.sum() == meter._received.sum() == meter.total_bytes
            assert meter.total_bytes == recorder.expected_bytes
