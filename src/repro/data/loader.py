"""Mini-batch sampling (Algorithm 2, line 14: "Sample a mini-batch").

:class:`DataLoader` yields shuffled epochs; :meth:`DataLoader.sample`
draws one random batch — the mode the decentralized algorithms use, since
they run one SGD step per communication round.
"""

from __future__ import annotations

from typing import Iterator, Tuple

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
    drop_last:
        If true, epochs drop the final ragged batch.
    rng:
        Seed or generator for shuffling/sampling.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        drop_last: bool = False,
        rng: SeedLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(dataset) == 0:
            raise ValueError("cannot load from an empty dataset")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.drop_last = drop_last
        self._rng = as_generator(rng)

    def __len__(self) -> int:
        """Number of batches per epoch."""
        full, ragged = divmod(len(self.dataset), self.batch_size)
        if ragged and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[Batch]:
        """One shuffled epoch of batches."""
        order = self._rng.permutation(len(self.dataset))
        for start in range(0, len(order), self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and len(indices) < self.batch_size:
                return
            yield self.dataset.features[indices], self.dataset.labels[indices]

    def sample(self) -> Batch:
        """One random batch with replacement across calls (within a batch
        the samples are distinct)."""
        indices = self._rng.choice(
            len(self.dataset), size=self.batch_size, replace=False
        )
        return self.dataset.features[indices], self.dataset.labels[indices]
