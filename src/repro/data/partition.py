"""Partitioning a dataset across workers (the paper's ``D_p`` shards).

The paper's experiments shard the training set across 32 workers.  We
provide two standard federated-learning partitioners:

* :func:`partition_iid` — uniform random equal shards.
* :func:`partition_dirichlet` — label-skewed non-IID shards controlled by
  a Dirichlet concentration ``alpha`` (smaller = more skew).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.datasets import Dataset
from repro.utils.rng import SeedLike, as_generator


def _check_workers(num_workers: int, num_samples: int) -> None:
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    if num_samples < num_workers:
        raise ValueError(
            f"cannot split {num_samples} samples across {num_workers} workers"
        )


def partition_iid(
    dataset: Dataset, num_workers: int, rng: SeedLike = None
) -> List[Dataset]:
    """Uniform random split into near-equal shards (every sample used once)."""
    _check_workers(num_workers, len(dataset))
    rng = as_generator(rng)
    order = rng.permutation(len(dataset))
    return [dataset.subset(chunk) for chunk in np.array_split(order, num_workers)]


def partition_dirichlet(
    dataset: Dataset,
    num_workers: int,
    alpha: float = 0.5,
    rng: SeedLike = None,
    min_samples: int = 1,
) -> List[Dataset]:
    """Label-skewed split: class ``k``'s samples are distributed across
    workers according to ``Dirichlet(alpha)`` proportions.

    Retries until every worker has at least ``min_samples`` samples, which
    is the standard practical fix for extreme draws at small ``alpha``.
    """
    _check_workers(num_workers, len(dataset))
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = as_generator(rng)

    for _ in range(100):
        assignments: List[List[int]] = [[] for _ in range(num_workers)]
        for cls in range(dataset.num_classes):
            class_indices = np.flatnonzero(dataset.labels == cls)
            if class_indices.size == 0:
                continue
            rng.shuffle(class_indices)
            proportions = rng.dirichlet([alpha] * num_workers)
            counts = np.floor(proportions * class_indices.size).astype(int)
            # Distribute the remainder to the largest proportions.
            remainder = class_indices.size - counts.sum()
            for worker in np.argsort(-proportions)[:remainder]:
                counts[worker] += 1
            start = 0
            for worker, count in enumerate(counts):
                assignments[worker].extend(class_indices[start : start + count])
                start += count
        if min(len(a) for a in assignments) >= min_samples:
            return [
                dataset.subset(np.asarray(sorted(indices)))
                for indices in assignments
            ]
    raise RuntimeError(
        "could not satisfy min_samples after 100 Dirichlet draws; "
        "increase alpha or dataset size"
    )
