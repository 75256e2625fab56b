"""Bandwidth measurement and estimation.

The paper's footnote 3: "the communication speed information is measured
by each pair of peers and regularly reported to the coordinator".  This
module provides that measurement loop for the simulator:

* :class:`DriftingBandwidth` — ground truth that evolves over time
  (multiplicative random-walk drift, clamped), modelling the WAN
  variability visible in Fig. 1;
* :func:`measure_bandwidth` — one noisy pairwise speed test;
* :class:`BandwidthEstimator` — per-link EWMA over noisy measurements,
  producing the ``B`` matrix the coordinator's Algorithm 3 consumes.

``examples/dynamic_network.py`` closes the loop: the selector re-reads
the estimator's matrix every ``report_interval`` rounds and keeps
choosing good peers as the true speeds drift.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.bandwidth import symmetrize_min
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square


class DriftingBandwidth:
    """Time-varying symmetric bandwidth matrix.

    Each link follows an independent geometric random walk:
    ``B_t = clip(B_{t-1} · exp(N(0, drift)), low, high)``.
    """

    def __init__(
        self,
        initial: np.ndarray,
        drift: float = 0.05,
        low: float = 1e-3,
        high: Optional[float] = None,
        rng: SeedLike = None,
    ) -> None:
        initial = check_square(np.asarray(initial, dtype=np.float64))
        if drift < 0:
            raise ValueError(f"drift must be non-negative, got {drift}")
        if low <= 0:
            raise ValueError(f"low must be positive, got {low}")
        self.num_workers = initial.shape[0]
        self._current = symmetrize_min(initial)
        self.drift = drift
        self.low = low
        self.high = high if high is not None else float(initial.max()) * 10
        self._rng = as_generator(rng)
        self._round = 0

    def at(self, round_index: int) -> np.ndarray:
        """Ground-truth matrix at ``round_index`` (monotone queries only)."""
        if round_index < self._round:
            raise ValueError(
                f"bandwidth already advanced past round {round_index}"
            )
        while self._round < round_index:
            n = self.num_workers
            shocks = np.exp(
                self._rng.normal(0.0, self.drift, size=(n, n))
            )
            shocks = np.triu(shocks, 1)
            shocks = shocks + shocks.T + np.eye(n)
            self._current = np.clip(
                self._current * shocks, self.low, self.high
            )
            np.fill_diagonal(self._current, 0.0)
            self._round += 1
        return self._current.copy()


def measure_bandwidth(
    true_speed: float, noise: float = 0.1, rng: SeedLike = None
) -> float:
    """One pairwise speed test: multiplicative log-normal noise.

    ``noise`` is the standard deviation of the log-measurement error.
    """
    if true_speed <= 0:
        raise ValueError(f"true_speed must be positive, got {true_speed}")
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    rng = as_generator(rng)
    return float(true_speed * np.exp(rng.normal(0.0, noise)))


class BandwidthEstimator:
    """Per-link EWMA of noisy speed tests — the coordinator's ``B``.

    ``estimate()`` returns the symmetric matrix to feed into
    :class:`repro.core.gossip.AdaptivePeerSelector`; links never measured fall
    back to ``prior``.
    """

    def __init__(
        self,
        num_workers: int,
        smoothing: float = 0.3,
        prior: float = 1.0,
        measurement_noise: float = 0.1,
        rng: SeedLike = None,
    ) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if prior <= 0:
            raise ValueError(f"prior must be positive, got {prior}")
        self.num_workers = num_workers
        self.smoothing = smoothing
        self.prior = prior
        self.measurement_noise = measurement_noise
        self._rng = as_generator(rng)
        self._estimates = np.full((num_workers, num_workers), np.nan)
        self.measurement_count = 0

    def record_measurement(self, a: int, b: int, measured: float) -> None:
        """Fold one measured speed for link (a, b) into the EWMA."""
        if a == b or not (
            0 <= a < self.num_workers and 0 <= b < self.num_workers
        ):
            raise ValueError(f"invalid link ({a}, {b})")
        if measured <= 0:
            raise ValueError(f"measured speed must be positive, got {measured}")
        previous = self._estimates[a, b]
        if np.isnan(previous):
            updated = measured
        else:
            updated = (
                self.smoothing * measured + (1.0 - self.smoothing) * previous
            )
        self._estimates[a, b] = self._estimates[b, a] = updated
        self.measurement_count += 1

    def survey(self, true_matrix: np.ndarray, pairs=None) -> None:
        """Run speed tests over ``pairs`` (default: all pairs) against the
        ground-truth matrix, with this estimator's measurement noise."""
        true_matrix = check_square(np.asarray(true_matrix, dtype=np.float64))
        if pairs is None:
            pairs = [
                (a, b)
                for a in range(self.num_workers)
                for b in range(a + 1, self.num_workers)
            ]
        for a, b in pairs:
            if true_matrix[a, b] > 0:
                self.record_measurement(
                    a,
                    b,
                    measure_bandwidth(
                        true_matrix[a, b], self.measurement_noise, self._rng
                    ),
                )

    def estimate(self) -> np.ndarray:
        """Current ``B`` matrix: EWMA estimates, prior where unmeasured."""
        matrix = np.where(np.isnan(self._estimates), self.prior, self._estimates)
        np.fill_diagonal(matrix, 0.0)
        return matrix
