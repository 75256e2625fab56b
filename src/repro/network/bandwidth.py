"""Bandwidth matrices: the paper's Fig. 1 data and synthetic generators.

``FIG1_BANDWIDTH_MBPS`` is the 14×14 measured inter-city matrix from the
paper (Mbits/s, ``nan`` on the diagonal), transcribed verbatim.  The
paper's two emulated environments are:

* 14 workers with the Fig. 1 bandwidths (converted to MB/s);
* 32 workers with pairwise speeds drawn uniformly from ``(0, 5]`` MB/s.

The paper symmetrizes speeds with ``B_ij = B_ji = min(B_ij, B_ji)``
("the communication bottleneck is decided by the slow one") —
:func:`symmetrize_min` implements exactly that.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square

#: City labels of the Fig. 1 measurement (Alibaba and Amazon regions).
FIG1_CITIES: List[str] = [
    "AliBeijing",
    "AliShanghai",
    "AliShenzhen",
    "AliZhangjiakou",
    "AmaColumbus",
    "AmaDublin",
    "AmaFrankfurtamMain",
    "AmaLondon",
    "AmaMontreal",
    "AmaMumbai",
    "AmaParis",
    "AmaPortland",
    "AmaSanFrancisco",
    "AmaSaoPaulo",
]

_NAN = np.nan

#: Fig. 1 matrix, Mbits/s.  Row = source city, column = destination city.
FIG1_BANDWIDTH_MBPS = np.array(
    [
        [_NAN, 1.3, 1.5, 1.2, 1.6, 1.6, 1.5, 1.6, 1.7, 1.4, 1.7, 1.5, 1.6, 1.5],
        [1.3, _NAN, 1.5, 1.2, 1.5, 1.5, 1.5, 1.6, 1.5, 1.2, 1.5, 1.5, 1.4, 1.6],
        [1.4, 1.3, _NAN, 1.3, 1.5, 1.6, 1.4, 1.7, 1.3, 1.6, 1.7, 1.4, 1.6, 1.4],
        [1.2, 1.3, 1.4, _NAN, 1.5, 1.4, 1.5, 1.5, 1.5, 1.2, 1.5, 1.6, 1.6, 1.6],
        [11.0, 2.2, 27.7, 6.8, _NAN, 82.5, 73.1, 82.2, 132.5, 49.1, 69.5, 84.8, 98.0, 57.4],
        [6.8, 1.1, 20.2, 4.7, 82.6, _NAN, 129.2, 269.2, 78.3, 73.3, 147.1, 50.3, 54.4, 37.0],
        [27.3, 1.1, 15.1, 21.8, 83.2, 184.8, _NAN, 331.2, 86.4, 76.8, 261.1, 62.4, 70.6, 42.3],
        [0.2, 13.9, 27.6, 14.8, 60.8, 195.3, 276.2, _NAN, 63.3, 75.4, 323.1, 50.3, 62.6, 39.8],
        [0.2, 16.9, 5.7, 1.1, 166.8, 83.9, 64.0, 61.6, _NAN, 40.7, 54.0, 80.4, 65.9, 39.1],
        [36.2, 27.4, 1.7, 22.0, 37.5, 48.6, 54.7, 50.0, 35.8, _NAN, 45.0, 33.5, 39.0, 22.5],
        [36.0, 0.6, 16.8, 21.1, 27.9, 115.1, 247.8, 317.4, 51.6, 47.5, _NAN, 48.1, 36.8, 24.4],
        [15.6, 28.6, 10.6, 8.1, 94.8, 45.4, 43.8, 46.3, 70.4, 27.0, 45.8, _NAN, 172.9, 39.4],
        [2.3, 3.9, 22.5, 5.7, 78.3, 45.6, 32.7, 34.5, 47.3, 23.2, 23.7, 134.5, _NAN, 31.2],
        [0.1, 15.1, 8.2, 15.4, 41.8, 32.7, 39.9, 37.9, 59.6, 25.0, 38.4, 38.2, 39.9, _NAN],
    ]
)


def mbits_to_mbytes(mbits_per_second: np.ndarray) -> np.ndarray:
    """Convert Mbits/s to MB/s (factor 8)."""
    return np.asarray(mbits_per_second, dtype=np.float64) / 8.0


def symmetrize_min(matrix: np.ndarray) -> np.ndarray:
    """The paper's ``B_ij = B_ji = min(B_ij, B_ji)`` symmetrization.

    ``nan`` entries (self-links) are preserved as 0 on the diagonal so the
    result is a plain numeric matrix safe for thresholding.
    """
    matrix = check_square(np.asarray(matrix, dtype=np.float64), "bandwidth matrix")
    symmetric = np.fmin(matrix, matrix.T)  # fmin ignores nan where possible
    np.nan_to_num(symmetric, copy=False, nan=0.0)
    np.fill_diagonal(symmetric, 0.0)
    return symmetric


def fig1_environment() -> np.ndarray:
    """The paper's 14-worker environment: Fig. 1 in MB/s, symmetrized."""
    return symmetrize_min(mbits_to_mbytes(FIG1_BANDWIDTH_MBPS))


def random_uniform_bandwidth(
    num_workers: int,
    low: float = 0.0,
    high: float = 5.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """The paper's 32-worker environment: pairwise speeds uniform on
    ``(low, high]`` MB/s, symmetric, zero diagonal."""
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    if high <= low:
        raise ValueError(f"need high > low, got ({low}, {high}]")
    rng = as_generator(rng)
    upper = rng.uniform(low, high, size=(num_workers, num_workers))
    # Exclusive lower bound: resample any exact-zero draws.
    while np.any(upper == low):
        upper[upper == low] = rng.uniform(low, high, size=np.sum(upper == low))
    matrix = np.triu(upper, k=1)
    matrix = matrix + matrix.T
    return matrix


def bandwidth_stats(matrix: np.ndarray) -> dict:
    """Summary statistics over off-diagonal links of a symmetric matrix."""
    matrix = check_square(matrix)
    off_diag = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    off_diag = off_diag[np.isfinite(off_diag)]
    return {
        "min": float(off_diag.min()),
        "max": float(off_diag.max()),
        "mean": float(off_diag.mean()),
        "median": float(np.median(off_diag)),
    }
