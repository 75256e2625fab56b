"""Tests for federated partitioners."""

import numpy as np
import pytest

from repro.data import make_blobs, partition_dirichlet, partition_iid


@pytest.fixture
def dataset():
    return make_blobs(num_samples=400, num_classes=10, rng=1)


def label_distribution(partitions, num_classes):
    """``(num_workers, num_classes)`` per-shard label counts."""
    return np.stack(
        [np.bincount(shard.labels, minlength=num_classes) for shard in partitions]
    )


def all_indices_used_once(partitions, dataset):
    checksums = np.concatenate([p.features.sum(axis=1) for p in partitions])
    return np.allclose(
        np.sort(checksums), np.sort(dataset.features.sum(axis=1)), atol=1e-12
    )


class TestIID:
    def test_sizes_near_equal(self, dataset):
        partitions = partition_iid(dataset, 7, rng=0)
        sizes = [len(p) for p in partitions]
        assert sum(sizes) == len(dataset)
        assert max(sizes) - min(sizes) <= 1

    def test_every_sample_used_once(self, dataset):
        assert all_indices_used_once(partition_iid(dataset, 8, rng=0), dataset)

    def test_labels_roughly_uniform(self, dataset):
        partitions = partition_iid(dataset, 4, rng=0)
        table = label_distribution(partitions, dataset.num_classes)
        # Every worker should see most classes.
        assert np.all((table > 0).sum(axis=1) >= 8)

    def test_too_many_workers_raises(self, dataset):
        with pytest.raises(ValueError):
            partition_iid(dataset, len(dataset) + 1)

    def test_zero_workers_raises(self, dataset):
        with pytest.raises(ValueError):
            partition_iid(dataset, 0)


class TestDirichlet:
    def test_every_sample_used_once(self, dataset):
        partitions = partition_dirichlet(dataset, 8, alpha=0.5, rng=0)
        assert all_indices_used_once(partitions, dataset)

    def test_skew_increases_as_alpha_decreases(self, dataset):
        def skew(alpha):
            partitions = partition_dirichlet(dataset, 8, alpha=alpha, rng=0)
            table = label_distribution(partitions, dataset.num_classes).astype(float)
            proportions = table / np.maximum(table.sum(axis=1, keepdims=True), 1)
            return float(np.std(proportions))

        assert skew(0.1) > skew(100.0)

    def test_min_samples_respected(self, dataset):
        partitions = partition_dirichlet(
            dataset, 4, alpha=0.3, rng=0, min_samples=5
        )
        assert min(len(p) for p in partitions) >= 5

    def test_invalid_alpha(self, dataset):
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, 4, alpha=0.0)
