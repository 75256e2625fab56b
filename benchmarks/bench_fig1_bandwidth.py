"""Fig. 1 — inter-city bandwidth matrix.

Renders the paper's measured 14×14 matrix (Mbits/s) and the derived
symmetric MB/s environment, and verifies the structural facts the paper
reads off the figure: intra-China links are slow and uniform, intra-
Europe/US links are 1-2 orders of magnitude faster, and speeds are
asymmetric before the min-symmetrization.
"""

import numpy as np

from repro.analysis import render_table
from repro.network import (
    FIG1_BANDWIDTH_MBPS,
    FIG1_CITIES,
    bandwidth_stats,
    fig1_environment,
)
from benchmarks.conftest import write_output


def build_figure():
    short = [city[:10] for city in FIG1_CITIES]
    rows = [
        [short[i]] + [
            "nan" if np.isnan(v) else round(float(v), 1)
            for v in FIG1_BANDWIDTH_MBPS[i]
        ]
        for i in range(14)
    ]
    raw = render_table(
        ["city"] + short, rows,
        title="Fig. 1 — measured inter-city bandwidth [Mbits/s]",
        precision=1,
    )
    env = fig1_environment()
    stats = bandwidth_stats(env)
    summary = (
        "14-worker environment (min-symmetrized, MB/s): "
        f"min={stats['min']:.4f} median={stats['median']:.4f} "
        f"mean={stats['mean']:.3f} max={stats['max']:.3f}"
    )
    return raw + "\n\n" + summary


def test_fig1_bandwidth_matrix():
    text = build_figure()
    write_output("fig1_bandwidth.txt", text)

    matrix = FIG1_BANDWIDTH_MBPS
    cities = FIG1_CITIES
    ali = [i for i, c in enumerate(cities) if c.startswith("Ali")]
    ama = [i for i, c in enumerate(cities) if c.startswith("Ama")]

    # Intra-China (Alibaba) links hover around 1.2-1.7 Mbit/s.
    intra_ali = [matrix[i, j] for i in ali for j in ali if i != j]
    assert max(intra_ali) <= 2.0

    # Intra-Amazon links are dramatically faster on average.
    intra_ama = [matrix[i, j] for i in ama for j in ama if i != j]
    assert np.mean(intra_ama) > 10 * np.mean(intra_ali)

    # The raw measurements are asymmetric (e.g. London->Beijing 0.2 vs
    # Beijing->London 1.6), which is why the paper symmetrizes by min.
    asym = np.nansum(np.abs(matrix - matrix.T))
    assert asym > 0
    env = fig1_environment()
    np.testing.assert_array_equal(env, env.T)
