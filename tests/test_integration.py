"""End-to-end integration tests across the whole stack.

These tests exercise the paper's experimental *shape* claims on small
workloads: SAPS-PSGD converges like D-PSGD, has the lowest traffic, and
selects better bandwidth than random/ring matching.
"""

import numpy as np
import pytest

from repro.algorithms import DPSGD, SAPSPSGD
from repro.data import (
    make_blobs,
    make_synthetic_images,
    partition_dirichlet,
    partition_iid,
)
from repro.network import (
    SimulatedNetwork,
    fig1_environment,
    random_uniform_bandwidth,
)
from repro.nn import TinyCNN, MLP
from repro.sim import ExperimentConfig, SuiteSettings, run_comparison, run_experiment


class TestConvergenceShape:
    def test_saps_tracks_dpsgd_accuracy(self):
        """Fig. 3's claim: SAPS-PSGD achieves similar convergence to
        D-PSGD (within a few points on the final accuracy)."""
        full = make_blobs(num_samples=640, num_classes=5, num_features=10, rng=11)
        train, validation = full.split(fraction=0.8, rng=11)
        partitions = partition_iid(train, 8, rng=11)
        config = ExperimentConfig(rounds=60, batch_size=16, lr=0.2, eval_every=20, seed=11)
        factory = lambda: MLP(10, [16], 5, rng=11)

        accuracies = {}
        for algorithm in [DPSGD(), SAPSPSGD(compression_ratio=10.0)]:
            result = run_experiment(
                algorithm, partitions, validation, factory, config,
                SimulatedNetwork(8),
            )
            accuracies[algorithm.name] = result.final_accuracy
        assert accuracies["SAPS-PSGD"] >= accuracies["D-PSGD"] - 0.1

    def test_cnn_on_synthetic_images(self):
        """The full image path: TinyCNN + synthetic images + SAPS-PSGD."""
        full = make_synthetic_images(
            num_samples=240, num_classes=3, channels=1, size=8, noise=0.1, rng=4
        )
        train, validation = full.split(fraction=0.8, rng=4)
        partitions = partition_iid(train, 4, rng=4)
        config = ExperimentConfig(rounds=60, batch_size=8, lr=0.2, eval_every=20, seed=4)
        factory = lambda: TinyCNN(in_channels=1, image_size=8, num_classes=3, width=4, rng=4)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
        )
        assert result.final_accuracy > 0.6

    def test_non_iid_partitions_still_converge(self):
        full = make_blobs(num_samples=800, num_classes=4, num_features=8, rng=9)
        train, validation = full.split(fraction=0.8, rng=9)
        partitions = partition_dirichlet(train, 4, alpha=0.5, rng=9, min_samples=16)
        config = ExperimentConfig(rounds=80, batch_size=16, lr=0.15, eval_every=40, seed=9)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation,
            lambda: MLP(8, [16], 4, rng=9), config, SimulatedNetwork(4),
        )
        assert result.final_accuracy > 0.75


class TestTrafficShape:
    def test_full_suite_traffic_ordering(self):
        """Fig. 4 / Table IV's headline: SAPS-PSGD spends the least
        worker traffic; D-PSGD the most among decentralized methods."""
        full = make_blobs(num_samples=440, num_classes=4, num_features=8, rng=21)
        train, validation = full.split(fraction=0.8, rng=21)
        partitions = partition_iid(train, 4, rng=21)
        config = ExperimentConfig(rounds=25, batch_size=16, lr=0.2, eval_every=25, seed=21)
        results = run_comparison(
            partitions, validation, lambda: MLP(8, [16], 4, rng=21), config,
            settings=SuiteSettings(
                saps_compression=20.0, topk_compression=50.0,
                sfedavg_compression=20.0,
            ),
        )
        traffic = {
            name: result.history[-1].worker_traffic_mb
            for name, result in results.items()
        }
        assert min(traffic, key=traffic.get) == "SAPS-PSGD"
        assert traffic["D-PSGD"] > traffic["DCD-PSGD"]
        assert traffic["D-PSGD"] > traffic["SAPS-PSGD"] * 10

    def test_fig1_environment_runs_14_workers(self):
        bandwidth = fig1_environment()
        full = make_blobs(num_samples=500, num_classes=4, num_features=8, rng=13)
        train, validation = full.split(fraction=0.8, rng=13)
        partitions = partition_iid(train, 14, rng=13)
        config = ExperimentConfig(rounds=20, batch_size=8, lr=0.2, eval_every=10, seed=13)
        result = run_experiment(
            SAPSPSGD(compression_ratio=10.0),
            partitions, validation, lambda: MLP(8, [16], 4, rng=13),
            config, SimulatedNetwork(14, bandwidth=bandwidth),
        )
        assert result.history[-1].comm_time_s > 0


class TestBandwidthShape:
    def test_adaptive_beats_random_and_ring_bandwidth(self):
        """Fig. 5's claim, end-to-end through the algorithm classes."""
        num_workers = 16
        bandwidth = random_uniform_bandwidth(num_workers, rng=0)
        full = make_blobs(num_samples=600, num_classes=3, num_features=6, rng=17)
        train, validation = full.split(fraction=0.9, rng=17)
        partitions = partition_iid(train, num_workers, rng=17)
        config = ExperimentConfig(rounds=50, batch_size=8, lr=0.2, eval_every=50, seed=17)

        means = {}
        for selector in ["adaptive", "random", "ring"]:
            algorithm = SAPSPSGD(compression_ratio=10.0, selector=selector)
            run_experiment(
                algorithm, partitions, validation,
                lambda: MLP(6, [8], 3, rng=17), config,
                SimulatedNetwork(num_workers, bandwidth=bandwidth),
            )
            means[selector] = float(np.mean(algorithm.round_bandwidths))
        assert means["adaptive"] > means["random"]
        assert means["adaptive"] > means["ring"]
