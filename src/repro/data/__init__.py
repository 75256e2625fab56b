"""Dataset substrate: synthetic data, federated partitioning, loaders."""

from repro.data.datasets import (
    Dataset,
    make_blobs,
    make_synthetic_images,
    synthetic_cifar10,
    synthetic_mnist,
)
from repro.data.partition import partition_dirichlet, partition_iid

__all__ = [
    "Dataset",
    "make_blobs",
    "make_synthetic_images",
    "synthetic_mnist",
    "synthetic_cifar10",
    "partition_iid",
    "partition_dirichlet",
]
