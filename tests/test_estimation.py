"""Tests for bandwidth drift, measurement and EWMA estimation."""

import numpy as np
import pytest

from repro.core.gossip import AdaptivePeerSelector
from repro.network import random_uniform_bandwidth
from repro.network.estimation import (
    BandwidthEstimator,
    DriftingBandwidth,
    measure_bandwidth,
)
from repro.network.metrics import utilized_bandwidth_per_round


class TestDriftingBandwidth:
    def test_initial_matrix_preserved(self):
        initial = random_uniform_bandwidth(6, rng=0)
        drifting = DriftingBandwidth(initial, drift=0.1, rng=0)
        np.testing.assert_allclose(drifting.at(0), initial)

    def test_stays_symmetric_and_bounded(self):
        initial = random_uniform_bandwidth(6, rng=0)
        drifting = DriftingBandwidth(initial, drift=0.3, low=0.01, high=10.0, rng=0)
        matrix = drifting.at(100)
        np.testing.assert_array_equal(matrix, matrix.T)
        off_diag = matrix[~np.eye(6, dtype=bool)]
        assert np.all(off_diag >= 0.01)
        assert np.all(off_diag <= 10.0)
        assert np.all(np.diag(matrix) == 0.0)

    def test_actually_drifts(self):
        initial = random_uniform_bandwidth(6, rng=0)
        drifting = DriftingBandwidth(initial, drift=0.2, rng=0)
        later = drifting.at(50)
        later[0, 1] = 1e9  # returned matrices are copies
        assert drifting.at(50)[0, 1] != 1e9
        assert np.abs(drifting.at(50) - initial).max() > 0.01

    def test_zero_drift_is_constant(self):
        initial = random_uniform_bandwidth(4, rng=1)
        drifting = DriftingBandwidth(initial, drift=0.0, rng=0)
        np.testing.assert_allclose(drifting.at(30), initial, atol=1e-12)

    def test_monotone_queries_enforced(self):
        drifting = DriftingBandwidth(random_uniform_bandwidth(4, rng=0), rng=0)
        drifting.at(10)
        with pytest.raises(ValueError):
            drifting.at(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftingBandwidth(random_uniform_bandwidth(4, rng=0), drift=-0.1)
        with pytest.raises(ValueError):
            DriftingBandwidth(random_uniform_bandwidth(4, rng=0), low=0.0)


class TestMeasureBandwidth:
    def test_noiseless_is_exact(self):
        assert measure_bandwidth(3.0, noise=0.0, rng=0) == 3.0

    def test_unbiased_in_log_space(self):
        rng = np.random.default_rng(0)
        samples = [measure_bandwidth(2.0, noise=0.2, rng=rng) for _ in range(4000)]
        assert np.mean(np.log(samples)) == pytest.approx(np.log(2.0), abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_bandwidth(0.0)
        with pytest.raises(ValueError):
            measure_bandwidth(1.0, noise=-1.0)


class TestBandwidthEstimator:
    def test_prior_for_unmeasured(self):
        estimator = BandwidthEstimator(4, prior=2.5)
        matrix = estimator.estimate()
        assert matrix[0, 1] == 2.5
        assert matrix[0, 0] == 0.0

    def test_first_measurement_taken_directly(self):
        estimator = BandwidthEstimator(4, smoothing=0.3)
        estimator.record_measurement(0, 1, 4.0)
        assert estimator.estimate()[0, 1] == 4.0
        assert estimator.estimate()[1, 0] == 4.0

    def test_ewma_update(self):
        estimator = BandwidthEstimator(4, smoothing=0.5)
        estimator.record_measurement(0, 1, 4.0)
        estimator.record_measurement(0, 1, 2.0)
        assert estimator.estimate()[0, 1] == pytest.approx(3.0)

    def test_survey_converges_to_truth(self):
        truth = random_uniform_bandwidth(8, rng=0)
        estimator = BandwidthEstimator(
            8, smoothing=0.3, measurement_noise=0.1, rng=0
        )
        for _ in range(40):
            estimator.survey(truth)
        off_diagonal = ~np.eye(8, dtype=bool)
        error = np.abs(estimator.estimate() - truth)[off_diagonal] / truth[off_diagonal]
        assert error.mean() < 0.1

    def test_validation(self):
        estimator = BandwidthEstimator(4)
        with pytest.raises(ValueError):
            estimator.record_measurement(0, 0, 1.0)
        with pytest.raises(ValueError):
            estimator.record_measurement(0, 9, 1.0)
        with pytest.raises(ValueError):
            estimator.record_measurement(0, 1, -1.0)
        with pytest.raises(ValueError):
            BandwidthEstimator(4, smoothing=0.0)
        with pytest.raises(ValueError):
            BandwidthEstimator(1)


class TestEstimationDrivenSelection:
    def test_selector_on_estimates_tracks_true_quality(self):
        """Close the loop: a selector fed EWMA estimates should pick
        matchings nearly as good (in true bandwidth) as one fed truth."""
        truth = random_uniform_bandwidth(12, rng=5)
        estimator = BandwidthEstimator(
            12, smoothing=0.5, measurement_noise=0.1, rng=5
        )
        for _ in range(20):
            estimator.survey(truth)

        def mean_true_bottleneck(matrix, rounds=60):
            selector = AdaptivePeerSelector(matrix, connectivity_gap=20, rng=5)
            values = []
            for t in range(rounds):
                matching = selector.select(t).matching
                values.append(utilized_bandwidth_per_round(matching, truth))
            return float(np.mean(values))

        oracle = mean_true_bottleneck(truth)
        estimated = mean_true_bottleneck(estimator.estimate())
        assert estimated > 0.7 * oracle
