"""Tests for presets and traffic breakdowns."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, SAPSPSGD
from repro.analysis.breakdown import (
    breakdown_traffic,
    compare_breakdowns,
    payload_size_histogram,
)
from repro.network import SimulatedNetwork
from repro.network.metrics import MB, TrafficMeter
from repro.presets import (
    PRESETS,
    TABLE2_SETTINGS,
    TABLE4_TARGETS,
    instantiate_preset,
)
from repro.sim import ExperimentConfig, make_workers, run_experiment
from tests.reference.per_worker import per_worker


class TestTable2Settings:
    def test_paper_values(self):
        mnist = TABLE2_SETTINGS["mnist-cnn"]
        assert (mnist.num_params, mnist.batch_size, mnist.lr, mnist.epochs) == (
            6_653_628, 50, 0.05, 100,
        )
        cifar = TABLE2_SETTINGS["cifar10-cnn"]
        assert (cifar.num_params, cifar.batch_size, cifar.lr, cifar.epochs) == (
            7_025_886, 100, 0.04, 320,
        )
        resnet = TABLE2_SETTINGS["resnet-20"]
        assert (resnet.num_params, resnet.batch_size, resnet.lr, resnet.epochs) == (
            269_722, 64, 0.1, 160,
        )

    def test_table4_targets(self):
        assert TABLE4_TARGETS == {
            "mnist-cnn": 0.96, "cifar10-cnn": 0.67, "resnet-20": 0.75,
        }


class TestInstantiatePreset:
    @pytest.mark.parametrize("name", ["mnist-cnn", "cifar10-cnn", "resnet-20"])
    def test_fast_presets_build_and_run(self, name):
        partitions, validation, factory, config = instantiate_preset(
            name, num_workers=4, fast=True, samples_per_worker=20,
            validation_samples=40, seed=1,
        )
        assert len(partitions) == 4
        model = per_worker(factory())
        logits = model.forward(validation.features[:2])
        assert logits.shape == (2, 10)
        assert config.rounds > 0

    def test_fast_preset_trains(self):
        partitions, validation, factory, config = instantiate_preset(
            "mnist-cnn", num_workers=4, fast=True, samples_per_worker=100,
            validation_samples=100, seed=2,
        )
        config = ExperimentConfig(
            rounds=120, batch_size=16, lr=0.2, eval_every=30, seed=2
        )
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
        )
        assert result.final_accuracy > 0.25  # well above 10% chance

    def test_full_preset_uses_paper_model(self):
        partitions, validation, factory, config = instantiate_preset(
            "resnet-20", num_workers=2, fast=False, samples_per_worker=4,
            validation_samples=4, seed=0,
        )
        assert factory().num_parameters() == 269_722
        assert validation.features.shape[1:] == (3, 32, 32)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            instantiate_preset("vgg", num_workers=2)

    def test_available(self):
        with pytest.raises(KeyError, match="'cifar10-cnn', 'mnist-cnn', 'resnet-20'"):
            instantiate_preset("vgg", num_workers=2)



class TestBreakdown:
    def test_peer_to_peer_only_for_saps(self, blob_splits):
        partitions, validation = blob_splits
        from repro.nn import MLP

        config = ExperimentConfig(rounds=10, batch_size=16, lr=0.2, eval_every=5, seed=7)
        network = SimulatedNetwork(4)
        run_experiment(
            SAPSPSGD(compression_ratio=5.0), partitions, validation,
            lambda: MLP(8, [16], 4, rng=7), config, network,
        )
        breakdown = breakdown_traffic(network.meter)
        assert breakdown.peer_to_peer_mb > 0
        assert breakdown.worker_to_server_mb == 0
        assert breakdown.server_to_worker_mb == 0
        # Up and down are symmetric for the bidirectional exchange.
        np.testing.assert_allclose(
            breakdown.worker_up.sum(), breakdown.worker_down.sum()
        )

    def test_server_traffic_for_fedavg(self, blob_splits):
        partitions, validation = blob_splits
        from repro.nn import MLP

        config = ExperimentConfig(rounds=10, batch_size=16, lr=0.2, eval_every=5, seed=7)
        network = SimulatedNetwork(4, server_bandwidth=5.0)
        run_experiment(
            FedAvg(participation=0.5, local_steps=2), partitions, validation,
            lambda: MLP(8, [16], 4, rng=7), config, network,
        )
        breakdown = breakdown_traffic(network.meter)
        assert breakdown.peer_to_peer_mb == 0
        assert breakdown.server_to_worker_mb > 0
        assert breakdown.worker_to_server_mb > 0
        # Client sampling concentrates load unevenly across workers.
        assert breakdown.imbalance() >= 1.0

    def test_total_consistent_with_meter(self):
        meter = TrafficMeter(3)
        meter.record(0, 0, 1, 1000)
        meter.record(0, 1, TrafficMeter.SERVER, 500)
        meter.record(0, TrafficMeter.SERVER, 2, 250)
        breakdown = breakdown_traffic(meter)
        total_mb = (
            breakdown.peer_to_peer_mb + breakdown.worker_to_server_mb + breakdown.server_to_worker_mb
        )
        assert total_mb == pytest.approx(1750 / MB)
        assert breakdown.num_transfers == 3

    def test_histogram(self):
        meter = TrafficMeter(2)
        for size in [10, 10, 1000, 100_000]:
            meter.record(0, 0, 1, size)
        histogram = payload_size_histogram(meter, num_bins=4)
        assert sum(histogram["counts"]) == 4

    def test_histogram_empty_and_constant(self):
        meter = TrafficMeter(2)
        assert payload_size_histogram(meter) == {"edges": [], "counts": []}
        meter.record(0, 0, 1, 64)
        meter.record(0, 1, 0, 64)
        histogram = payload_size_histogram(meter)
        assert histogram["counts"] == [2]

    def test_compare_rows(self):
        meter = TrafficMeter(2)
        meter.record(0, 0, 1, 1000)
        rows = compare_breakdowns({"x": breakdown_traffic(meter)})
        assert rows[0][0] == "x"
        assert len(rows[0]) == 5
