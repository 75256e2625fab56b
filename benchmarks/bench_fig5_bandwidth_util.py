"""Fig. 5 — per-round utilized bandwidth under two emulated environments.

Reproduces both panels:

* (a) 14 workers with the Fig. 1 inter-city bandwidths;
* (b) 32 workers with uniform-random (0, 5] MB/s links;

comparing SAPS-PSGD's adaptive matching against the ring topology used by
D-PSGD/DCD-PSGD and against uniform random matching ("RandomChoose").
The per-round utilized bandwidth is the bottleneck (minimum) link of the
selected matching — the speed the synchronous round actually proceeds at.
"""

import numpy as np

from repro.analysis import render_series, render_table
from repro.core.gossip import AdaptivePeerSelector, FixedRingSelector, RandomPeerSelector
from repro.network import fig1_environment, random_uniform_bandwidth
from repro.network.metrics import utilized_bandwidth_per_round
from benchmarks.conftest import write_output

ROUNDS = 400


def ring_bandwidth_average(bandwidth, num_samples=200, rng=None):
    """The paper's D-PSGD reference: average bottleneck of the
    1→2→...→n→1 ring over randomly permuted worker placements."""
    rng = np.random.default_rng(rng)
    n = bandwidth.shape[0]
    values = []
    for _ in range(num_samples):
        order = rng.permutation(n)
        links = [
            bandwidth[order[i], order[(i + 1) % n]] for i in range(n)
        ]
        values.append(min(links))
    return float(np.mean(values))


def run_environment(bandwidth, label, seed):
    n = bandwidth.shape[0]
    selectors = {
        "SAPS-PSGD": AdaptivePeerSelector(bandwidth, connectivity_gap=20, rng=seed),
        "RandomChoose": RandomPeerSelector(n, rng=seed),
    }
    series = {
        name: [
            utilized_bandwidth_per_round(
                selector.select(t).matching, bandwidth
            )
            for t in range(ROUNDS)
        ]
        for name, selector in selectors.items()
    }
    ring = ring_bandwidth_average(bandwidth, rng=seed)

    lines = [f"Fig. 5 ({label}) — utilized bandwidth per round [MB/s]"]
    for name, values in series.items():
        lines.append(
            render_series(name, list(range(ROUNDS)), values, "round", "MB/s")
        )
    means = {name: float(np.mean(values)) for name, values in series.items()}
    rows = [[name, round(mean, 4)] for name, mean in means.items()]
    rows.append(["D-PSGD/DCD-PSGD ring (avg)", round(ring, 4)])
    lines.append(render_table(["selector", "mean MB/s"], rows))
    return "\n".join(lines), means, ring


def test_fig5_14_worker_environment():
    bandwidth = fig1_environment()
    text, means, ring = run_environment(
        bandwidth, "14 workers, Fig. 1", seed=1
    )
    write_output("fig5_bandwidth_14.txt", text)
    # Paper: SAPS selects higher-bandwidth peers than both baselines.
    assert means["SAPS-PSGD"] > means["RandomChoose"]
    assert means["SAPS-PSGD"] > ring
    # Paper: random matching beats the fixed ring (min of n/2 random
    # edges beats min of n ring edges in expectation).
    assert means["RandomChoose"] > ring


def test_fig5_32_worker_environment():
    bandwidth = random_uniform_bandwidth(32, rng=7)
    text, means, ring = run_environment(
        bandwidth, "32 workers, uniform (0,5]", seed=2
    )
    write_output("fig5_bandwidth_32.txt", text)
    assert means["SAPS-PSGD"] > means["RandomChoose"] > ring
