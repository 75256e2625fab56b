"""Mini-batch sampling (Algorithm 2, line 14: "Sample a mini-batch").

:meth:`DataLoader.sample` draws one random batch — the decentralized
algorithms run one SGD step per communication round.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.utils.rng import SeedLike, as_generator

Batch = Tuple[np.ndarray, np.ndarray]


class DataLoader:
    """Batched access to a :class:`Dataset`.

    Parameters
    ----------
    dataset:
        Source data.
    batch_size:
        Number of samples per batch; clipped to the dataset size.
    rng:
        Seed or generator for shuffling/sampling.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        rng: SeedLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(dataset) == 0:
            raise ValueError("cannot load from an empty dataset")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self._rng = as_generator(rng)

    def sample(self) -> Batch:
        """One random batch with replacement across calls (within a batch
        the samples are distinct)."""
        indices = self._rng.choice(
            len(self.dataset), size=self.batch_size, replace=False
        )
        return self.dataset.features[indices], self.dataset.labels[indices]
