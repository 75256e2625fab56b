"""Tests for DataLoader."""

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data import make_blobs


@pytest.fixture
def dataset():
    return make_blobs(num_samples=25, rng=0)


class TestSample:
    def test_sample_size(self, dataset):
        loader = DataLoader(dataset, batch_size=8, rng=0)
        features, labels = loader.sample()
        assert features.shape[0] == 8
        assert labels.shape == (8,)

    def test_sample_has_distinct_rows(self, dataset):
        loader = DataLoader(dataset, batch_size=20, rng=0)
        features, _ = loader.sample()
        checksums = np.round(features.sum(axis=1), 9)
        assert len(set(checksums.tolist())) == 20

    def test_features_align_with_labels(self, dataset):
        loader = DataLoader(dataset, batch_size=5, rng=0)
        lookup = {
            round(float(f.sum()), 9): l
            for f, l in zip(dataset.features, dataset.labels)
        }
        for _ in range(10):
            features, labels = loader.sample()
            for f, l in zip(features, labels):
                assert lookup[round(float(f.sum()), 9)] == l

    def test_batch_size_clipped(self, dataset):
        loader = DataLoader(dataset, batch_size=1000, rng=0)
        assert loader.batch_size == len(dataset)


class TestValidation:
    def test_empty_dataset_raises(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset.subset(np.array([], dtype=int)), batch_size=1)

    def test_bad_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)
