"""Tests for compute-time models (stragglers) and data augmentation."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, SAPSPSGD
from repro.data import (
    Compose,
    Cutout,
    DataLoader,
    GaussianNoise,
    RandomCrop,
    RandomHorizontalFlip,
    cifar_augmentation,
    make_blobs,
    make_synthetic_images,
    partition_iid,
)
from repro.network import SimulatedNetwork
from repro.sim import (
    ConstantCompute,
    ExperimentConfig,
    HeterogeneousCompute,
    run_experiment,
)


class TestConstantCompute:
    def test_step_time(self):
        model = ConstantCompute(0.2)
        assert model.step_time(0, 3) == pytest.approx(0.2)
        assert model.step_time(5, 0, steps=4) == pytest.approx(0.8)

    def test_round_time_is_max(self):
        model = ConstantCompute(0.1)
        assert model.round_time(0, [0, 1, 2]) == pytest.approx(0.1)
        assert model.round_time(0, []) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantCompute(0.0)


class TestHeterogeneousCompute:
    def test_spread_creates_stragglers(self):
        model = HeterogeneousCompute(8, mean_step_time=0.1, spread=8.0, rng=0)
        assert model.imbalance() > 2.0
        straggler = model.straggler_rank
        assert model.worker_means[straggler] == model.worker_means.max()

    def test_round_time_gated_by_straggler(self):
        model = HeterogeneousCompute(8, spread=8.0, jitter=0.0, rng=0)
        full = model.round_time(0, list(range(8)))
        without_straggler = model.round_time(
            0, [r for r in range(8) if r != model.straggler_rank]
        )
        assert full > without_straggler

    def test_step_time_deterministic(self):
        model = HeterogeneousCompute(4, rng=0)
        assert model.step_time(3, 2) == model.step_time(3, 2)
        assert model.step_time(3, 2) != model.step_time(4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousCompute(0)
        with pytest.raises(ValueError):
            HeterogeneousCompute(4, spread=0.5)
        with pytest.raises(ValueError):
            HeterogeneousCompute(4, rng=0).step_time(0, 9)


class TestRoundTimePartialParticipation:
    """round_time over participant subsets: the FedAvg/churn regime."""

    def test_subset_max_only_over_participants(self):
        model = HeterogeneousCompute(6, spread=8.0, jitter=0.0, rng=2)
        participants = [1, 3, 4]
        expected = max(model.step_time(0, rank) for rank in participants)
        assert model.round_time(0, participants) == pytest.approx(expected)

    def test_singleton_participant(self):
        model = HeterogeneousCompute(4, jitter=0.0, rng=0)
        assert model.round_time(2, [3]) == pytest.approx(model.step_time(2, 3))

    def test_empty_participants_is_zero(self):
        model = HeterogeneousCompute(4, rng=0)
        assert model.round_time(0, []) == 0.0
        assert ConstantCompute(0.5).round_time(0, []) == 0.0

    def test_steps_scale_subset_round(self):
        model = ConstantCompute(0.2)
        assert model.round_time(0, [0, 2], steps=3) == pytest.approx(0.6)

    def test_excluding_straggler_shrinks_round(self):
        model = HeterogeneousCompute(5, spread=16.0, jitter=0.0, rng=1)
        everyone = model.round_time(0, list(range(5)))
        without = model.round_time(
            0, [r for r in range(5) if r != model.straggler_rank]
        )
        assert without < everyone
        assert everyone == pytest.approx(
            model.step_time(0, model.straggler_rank)
        )


class TestEngineComputeIntegration:
    @pytest.fixture
    def workload(self):
        full = make_blobs(num_samples=200, num_classes=3, num_features=6, rng=14)
        train, validation = full.split(fraction=0.8, rng=14)
        partitions = partition_iid(train, 4, rng=14)
        from repro.nn import MLP

        return partitions, validation, lambda: MLP(6, [8], 3, rng=14)

    def test_compute_time_recorded(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=10, eval_every=5, lr=0.2, seed=14)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
            compute_model=ConstantCompute(0.1),
        )
        final = result.history[-1]
        assert final.compute_time_s == pytest.approx(1.0)  # 10 rounds x 0.1
        assert final.time_s == pytest.approx(
            final.comm_time_s + final.compute_time_s
        )

    def test_no_compute_model_means_zero(self, workload):
        partitions, validation, factory = workload
        config = ExperimentConfig(rounds=5, eval_every=5, lr=0.2, seed=14)
        result = run_experiment(
            SAPSPSGD(compression_ratio=5.0),
            partitions, validation, factory, config, SimulatedNetwork(4),
        )
        assert result.history[-1].compute_time_s == 0.0

    def test_fedavg_only_waits_for_selected(self, workload):
        """Partial participation dodges stragglers: FedAvg's compute time
        per round is the max over the *sampled* workers only."""
        partitions, validation, factory = workload
        compute = HeterogeneousCompute(4, spread=16.0, jitter=0.0, rng=3)
        config = ExperimentConfig(rounds=30, eval_every=30, lr=0.2, seed=14)

        def run(algorithm):
            return run_experiment(
                algorithm, partitions, validation, factory, config,
                SimulatedNetwork(4), compute_model=compute,
            ).history[-1].compute_time_s

        fedavg_time = run(FedAvg(participation=0.5, local_steps=1))
        saps_time = run(SAPSPSGD(compression_ratio=5.0))
        # SAPS waits for everyone incl. the straggler every round; FedAvg
        # only when the straggler is sampled (about half the rounds).
        assert fedavg_time < saps_time


class TestAugmentations:
    @pytest.fixture
    def batch(self, rng):
        return rng.normal(size=(6, 3, 8, 8))

    def test_flip_all(self, batch):
        flipped = RandomHorizontalFlip(1.0, rng=0)(batch)
        np.testing.assert_array_equal(flipped, batch[:, :, :, ::-1])

    def test_flip_none(self, batch):
        np.testing.assert_array_equal(
            RandomHorizontalFlip(0.0, rng=0)(batch), batch
        )

    def test_flip_involution(self, batch):
        transform = RandomHorizontalFlip(1.0, rng=0)
        np.testing.assert_array_equal(transform(transform(batch)), batch)

    def test_crop_preserves_shape(self, batch):
        out = RandomCrop(2, rng=0)(batch)
        assert out.shape == batch.shape

    def test_crop_zero_padding_identity(self, batch):
        np.testing.assert_array_equal(RandomCrop(0, rng=0)(batch), batch)

    def test_crop_content_from_padded_image(self):
        """Cropped rows/cols must exist in the reflect-padded source."""
        image = np.arange(16.0).reshape(1, 1, 4, 4)
        out = RandomCrop(1, rng=3)(image)
        padded = np.pad(image, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
        found = False
        for oy in range(3):
            for ox in range(3):
                if np.array_equal(out[0, 0], padded[0, 0, oy : oy + 4, ox : ox + 4]):
                    found = True
        assert found

    def test_noise_changes_values(self, batch):
        out = GaussianNoise(0.1, rng=0)(batch)
        assert not np.array_equal(out, batch)
        assert np.abs(out - batch).max() < 1.0

    def test_noise_zero_std_identity(self, batch):
        np.testing.assert_array_equal(GaussianNoise(0.0)(batch), batch)

    def test_cutout_zeroes_patch(self):
        batch = np.ones((4, 2, 8, 8))
        out = Cutout(4, rng=0)(batch)
        assert (out == 0).any()
        assert (out == 1).any()
        # Original untouched.
        assert (batch == 1).all()

    def test_compose_order(self, batch):
        double = Compose([lambda b: b * 2, lambda b: b + 1])
        np.testing.assert_allclose(double(batch), batch * 2 + 1)

    def test_cifar_pipeline_runs(self, batch):
        out = cifar_augmentation(rng=0)(batch)
        assert out.shape == batch.shape

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomHorizontalFlip(1.5)
        with pytest.raises(ValueError):
            RandomCrop(-1)
        with pytest.raises(ValueError):
            Cutout(0)
        with pytest.raises(ValueError):
            RandomCrop(1, rng=0)(np.zeros((2, 3)))


class TestLoaderTransform:
    def test_transform_applied_to_samples(self):
        dataset = make_synthetic_images(20, 2, 1, 6, rng=0)
        loader = DataLoader(
            dataset, batch_size=5, rng=0, transform=lambda b: b * 0.0
        )
        features, _ = loader.sample()
        np.testing.assert_array_equal(features, np.zeros_like(features))

    def test_transform_applied_in_epochs(self):
        dataset = make_synthetic_images(12, 2, 1, 6, rng=0)
        loader = DataLoader(
            dataset, batch_size=4, rng=0, transform=lambda b: b + 100.0
        )
        for features, _ in loader:
            assert features.min() > 50.0

    def test_no_transform_by_default(self):
        dataset = make_synthetic_images(12, 2, 1, 6, rng=0)
        loader = DataLoader(dataset, batch_size=4, rng=0)
        assert loader.transform is None
