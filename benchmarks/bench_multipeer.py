"""Degree-k trade-off bench (Section II-C's consensus/communication
trade-off, quantified).

The paper argues for single-peer communication: "one can add more
connections ... to achieve faster consensus, but it would introduce more
communications".  We sweep the gossip degree k and measure both sides:
per-worker traffic grows linearly in k while ρ (and hence the consensus
horizon) shrinks with diminishing returns — the knee at k=1-2 is why the
paper's choice is defensible.
"""

import numpy as np

from repro.analysis import render_table
from repro.core.gossip import RandomPeerSelector
from repro.core.multipeer import MultiPeerSelector
from repro.theory import (
    consensus_factor,
    estimate_rho,
    random_initial_states,
    rounds_to_epsilon,
    simulate_consensus,
)
from benchmarks.conftest import write_output

NUM_WORKERS = 16
COMPRESSION = 100.0


def test_degree_tradeoff():
    def sweep():
        rows = []
        stats = {}
        for degree in [1, 2, 4, 8]:
            selector = MultiPeerSelector(NUM_WORKERS, degree, rng=3)
            rho = estimate_rho(
                lambda t: selector.select(t).gossip, num_samples=200
            )
            factor = consensus_factor(COMPRESSION, rho)
            runner = MultiPeerSelector(NUM_WORKERS, degree, rng=4)
            trace = simulate_consensus(
                random_initial_states(NUM_WORKERS, 100, rng=5),
                lambda t: runner.select(t).gossip,
                rounds=150,
            )
            stats[degree] = {
                "rho": rho,
                "factor": factor,
                "final": trace.final,
                "traffic_per_round": degree * 2,  # in units of N/c values
            }
            rows.append(
                [
                    degree,
                    degree * 2,
                    round(rho, 4),
                    round(factor, 6),
                    rounds_to_epsilon(factor),
                    f"{trace.final:.2e}",
                ]
            )
        text = render_table(
            [
                "degree k", "traffic [N/c units/round]", "rho",
                f"q+p*rho^2 (c={COMPRESSION:g})", "rounds to 1e-3",
                "consensus dist after 150 dense rounds",
            ],
            rows,
            title="Section II-C trade-off — gossip degree vs consensus speed vs traffic",
        )
        return text, stats

    text, stats = sweep()
    write_output("multipeer_tradeoff.txt", text)

    # rho decreases monotonically with degree...
    rhos = [stats[k]["rho"] for k in [1, 2, 4, 8]]
    assert all(b < a for a, b in zip(rhos, rhos[1:]))
    # ...but with diminishing returns: the rho gain from 1→2 exceeds 4→8.
    assert (rhos[0] - rhos[1]) > (rhos[2] - rhos[3])
    # Traffic doubles per degree step while the consensus-horizon gain
    # (rounds to 1e-3 with c=100) is far less than 2x beyond k=2.
    horizon = {
        k: rounds_to_epsilon(stats[k]["factor"]) for k in [2, 4, 8]
    }
    assert horizon[4] / horizon[8] < 2.0


def test_degree_one_matches_random_selector():
    """MultiPeerSelector(k=1) must be statistically equivalent to the
    single-peer RandomPeerSelector (same rho within noise)."""

    def measure():
        multi = MultiPeerSelector(NUM_WORKERS, 1, rng=7)
        single = RandomPeerSelector(NUM_WORKERS, rng=7)
        rho_multi = estimate_rho(
            lambda t: multi.select(t).gossip, num_samples=300
        )
        rho_single = estimate_rho(
            lambda t: single.select(t).gossip, num_samples=300
        )
        return rho_multi, rho_single

    rho_multi, rho_single = measure()
    assert abs(rho_multi - rho_single) < 0.05
