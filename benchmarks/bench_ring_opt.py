"""Topology-optimization bench: the NP-complete ring vs polynomial matching.

Section II-C argues that choosing the best ring is a Hamiltonian-cycle
problem (NP-complete) and that SAPS's per-round matchings sidestep it.
This bench makes the argument quantitative on the paper's 32-worker
random environment (solved exactly at n=12 where the exponential solver
is safe, heuristically at n=32):

* the bottleneck-optimal perfect matching (polynomial) always dominates
  the bottleneck-optimal ring;
* 2-opt recovers most of the exact ring optimum at a fraction of the
  cost;
* the naive 1→2→...→n ring the paper averages over (Fig. 5's D-PSGD
  reference) is far below all of them.
"""

import numpy as np

from repro.analysis import render_table
from repro.core.ring_opt import (
    best_bottleneck_matching,
    best_bottleneck_ring,
    greedy_ring,
    ring_bottleneck,
    two_opt_ring,
)
from repro.network import random_uniform_bandwidth
from benchmarks.conftest import write_output


def test_topology_optimization_small_exact():
    def solve():
        rows = []
        stats = []
        for seed in range(5):
            bandwidth = random_uniform_bandwidth(12, rng=seed)
            naive = ring_bottleneck(list(range(12)), bandwidth)
            greedy = ring_bottleneck(greedy_ring(bandwidth), bandwidth)
            two_opt = ring_bottleneck(two_opt_ring(bandwidth, rng=seed), bandwidth)
            _, exact = best_bottleneck_ring(bandwidth)
            _, matching = best_bottleneck_matching(bandwidth)
            stats.append((naive, greedy, two_opt, exact, matching))
            rows.append(
                [seed] + [round(v, 3) for v in (naive, greedy, two_opt, exact, matching)]
            )
        means = np.mean(stats, axis=0)
        rows.append(["mean"] + [round(v, 3) for v in means])
        text = render_table(
            ["seed", "naive ring", "greedy ring", "2-opt ring",
             "optimal ring (NP-c)", "optimal matching (poly)"],
            rows,
            title="Bottleneck topologies, 12 workers, uniform (0,5] MB/s",
        )
        return text, stats

    text, stats = solve()
    write_output("ring_opt_small.txt", text)

    for naive, greedy, two_opt, exact, matching in stats:
        assert matching >= exact  # poly matching dominates NP-c ring
        assert exact >= two_opt - 1e-12
        assert exact >= naive
    # 2-opt recovers at least 60% of the exact ring optimum on average.
    means = np.mean(stats, axis=0)
    assert means[2] >= 0.6 * means[3]
    # The naive ordered ring (the paper's averaging baseline) is the worst.
    assert means[0] == min(means)


def test_topology_optimization_paper_scale():
    """n=32 (the paper's worker count): heuristics + polynomial matching
    only; the exact ring solver is exactly what is infeasible here."""

    def solve():
        bandwidth = random_uniform_bandwidth(32, rng=0)
        naive = ring_bottleneck(list(range(32)), bandwidth)
        two_opt = ring_bottleneck(two_opt_ring(bandwidth, rng=0), bandwidth)
        _, matching = best_bottleneck_matching(bandwidth)
        text = render_table(
            ["topology", "bottleneck [MB/s]"],
            [
                ["naive 1->2->...->32 ring", round(naive, 4)],
                ["2-opt ring (heuristic)", round(two_opt, 4)],
                ["optimal matching (polynomial)", round(matching, 4)],
            ],
            title="Bottleneck topologies at the paper's n=32",
        )
        return text, naive, two_opt, matching

    text, naive, two_opt, matching = solve()
    write_output("ring_opt_32.txt", text)
    assert matching > two_opt > naive
