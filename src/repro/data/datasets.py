"""Synthetic classification datasets.

The paper trains on MNIST and CIFAR-10.  This environment has no network
access, so we substitute synthetic datasets that exercise identical code
paths:

* :func:`make_synthetic_images` — Gaussian class-prototype images with
  per-class structured textures, at any ``(channels, size, size)`` shape.
  ``synthetic_mnist()`` and ``synthetic_cifar10()`` produce the paper's
  shapes.
* :func:`make_blobs` — a low-dimensional dataset for fast experiments
  and tests.

Every generator is deterministic given a seed, and returns a
:class:`Dataset` of float64 features and int64 labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator


@dataclass
class Dataset:
    """An in-memory dataset of ``(features, labels)``.

    ``features`` is ``(num_samples, ...)``; ``labels`` is ``(num_samples,)``
    of integer class ids in ``[0, num_classes)``.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        # Keep float32/float64 features as-is (the dtype-parametric
        # training path relies on it); promote anything else to float64
        # as before.
        self.features = np.asarray(self.features)
        if self.features.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            self.features = self.features.astype(np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"{len(self.features)} features but {len(self.labels)} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return len(self.labels)

    def astype(self, dtype) -> "Dataset":
        """This dataset with features cast to ``dtype`` (no copy when the
        dtype already matches); labels stay int64."""
        features = self.features.astype(dtype, copy=False)
        if features is self.features:
            return self
        return Dataset(
            features=features,
            labels=self.labels,
            num_classes=self.num_classes,
            name=self.name,
        )

    def subset(self, indices: np.ndarray) -> "Dataset":
        """A new dataset restricted to ``indices`` (copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[indices].copy(),
            labels=self.labels[indices].copy(),
            num_classes=self.num_classes,
            name=self.name,
        )

    def split(self, fraction: float, rng: SeedLike = None) -> Tuple["Dataset", "Dataset"]:
        """Random split into ``(first, second)`` with ``fraction`` in first."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        rng = as_generator(rng)
        order = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self.subset(order[:cut]), self.subset(order[cut:])


def make_blobs(
    num_samples: int = 1000,
    num_classes: int = 10,
    num_features: int = 32,
    separation: float = 3.0,
    noise: float = 1.0,
    rng: SeedLike = None,
) -> Dataset:
    """Isotropic Gaussian blobs — linearly separable at high separation."""
    rng = as_generator(rng)
    centers = rng.normal(0.0, separation, size=(num_classes, num_features))
    labels = rng.integers(num_classes, size=num_samples)
    features = centers[labels] + rng.normal(0.0, noise, size=(num_samples, num_features))
    return Dataset(features, labels, num_classes, name="blobs")


def make_synthetic_images(
    num_samples: int,
    num_classes: int,
    channels: int,
    size: int,
    noise: float = 0.4,
    rng: SeedLike = None,
    name: str = "synthetic-images",
) -> Dataset:
    """Image-shaped classification data with per-class spatial structure.

    Each class gets a prototype built from a few random 2-D sinusoids (so
    classes differ in *spatial frequency content*, which convolutions can
    exploit and a bag-of-pixels model cannot), plus Gaussian pixel noise.
    """
    rng = as_generator(rng)
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    prototypes = np.zeros((num_classes, channels, size, size))
    for cls in range(num_classes):
        for ch in range(channels):
            proto = np.zeros((size, size))
            for _ in range(3):
                fy, fx = rng.uniform(0.5, 3.0, size=2)
                phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
                proto += rng.uniform(0.5, 1.0) * np.sin(
                    2 * np.pi * fy * ys / size + phase_y
                ) * np.cos(2 * np.pi * fx * xs / size + phase_x)
            prototypes[cls, ch] = proto / 3.0
    labels = rng.integers(num_classes, size=num_samples)
    features = prototypes[labels] + rng.normal(
        0.0, noise, size=(num_samples, channels, size, size)
    )
    return Dataset(features, labels, num_classes, name=name)


def synthetic_mnist(
    num_samples: int = 2000, noise: float = 0.4, rng: SeedLike = None
) -> Dataset:
    """MNIST-shaped substitute: ``(1, 28, 28)``, 10 classes."""
    return make_synthetic_images(
        num_samples, 10, 1, 28, noise=noise, rng=rng, name="synthetic-mnist"
    )


def synthetic_cifar10(
    num_samples: int = 2000, noise: float = 0.4, rng: SeedLike = None
) -> Dataset:
    """CIFAR-10-shaped substitute: ``(3, 32, 32)``, 10 classes."""
    return make_synthetic_images(
        num_samples, 10, 3, 32, noise=noise, rng=rng, name="synthetic-cifar10"
    )
