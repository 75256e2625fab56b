"""Tests for repro.data.datasets."""

import numpy as np
import pytest

from repro.data import (
    Dataset,
    make_blobs,
    make_synthetic_images,
    synthetic_cifar10,
    synthetic_mnist,
)


class TestDataset:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), num_classes=2)

    def test_label_range_check(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=3)

    def test_subset(self):
        dataset = make_blobs(num_samples=20, rng=0)
        sub = dataset.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.features[0], dataset.features[1])

    def test_subset_copies(self):
        dataset = make_blobs(num_samples=5, rng=0)
        sub = dataset.subset(np.array([0]))
        sub.features[0, 0] = 1e9
        assert dataset.features[0, 0] != 1e9

    def test_split_sizes_and_disjointness(self):
        dataset = make_blobs(num_samples=100, rng=0)
        first, second = dataset.split(0.7, rng=1)
        assert len(first) == 70
        assert len(second) == 30
        # Disjoint: union of rows equals original multiset (by checksum).
        total = np.sort(
            np.concatenate([first.features.sum(axis=1), second.features.sum(axis=1)])
        )
        np.testing.assert_allclose(
            total, np.sort(dataset.features.sum(axis=1)), atol=1e-12
        )

    def test_split_bad_fraction(self):
        dataset = make_blobs(num_samples=10, rng=0)
        with pytest.raises(ValueError):
            dataset.split(1.0)

    def test_sample_shape(self):
        dataset = synthetic_mnist(num_samples=4, rng=0)
        assert dataset.sample_shape == (1, 28, 28)


class TestGenerators:
    def test_blobs_deterministic(self):
        a = make_blobs(num_samples=50, rng=3)
        b = make_blobs(num_samples=50, rng=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_blobs_separable_at_high_separation(self):
        dataset = make_blobs(
            num_samples=500, num_classes=3, separation=20.0, noise=0.1, rng=0
        )
        # Nearest-centroid classification should be perfect.
        centroids = np.stack(
            [dataset.features[dataset.labels == k].mean(axis=0) for k in range(3)]
        )
        distances = np.linalg.norm(
            dataset.features[:, None, :] - centroids[None], axis=2
        )
        assert np.array_equal(np.argmin(distances, axis=1), dataset.labels)

    def test_synthetic_images_shapes(self):
        dataset = make_synthetic_images(10, 4, 3, 16, rng=0)
        assert dataset.features.shape == (10, 3, 16, 16)
        assert dataset.num_classes == 4

    def test_synthetic_mnist_cifar_shapes(self):
        assert synthetic_mnist(num_samples=3, rng=0).features.shape == (3, 1, 28, 28)
        assert synthetic_cifar10(num_samples=3, rng=0).features.shape == (3, 3, 32, 32)

    def test_images_class_structure_learnable(self):
        """Same-class images must correlate more than cross-class ones."""
        dataset = make_synthetic_images(
            60, 2, 1, 12, noise=0.1, rng=5
        )
        flat = dataset.features.reshape(len(dataset), -1)
        flat = flat - flat.mean(axis=1, keepdims=True)
        same, cross = [], []
        for i in range(0, 30):
            for j in range(i + 1, 30):
                corr = float(
                    flat[i] @ flat[j] / (np.linalg.norm(flat[i]) * np.linalg.norm(flat[j]))
                )
                (same if dataset.labels[i] == dataset.labels[j] else cross).append(corr)
        assert np.mean(same) > np.mean(cross)
