"""Mini-batch sampling (Algorithm 2, line 14: "Sample a mini-batch").

A :class:`DataLoader` is one worker's shard, batch size and generator.
:class:`repro.sim.cluster.ClusterTrainer` draws every worker's batch
from them in one stacked pass: ``batch_size`` distinct rows a draw,
with replacement across draws.
"""

from __future__ import annotations

from repro.data.datasets import Dataset
from repro.utils.rng import SeedLike, as_generator


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
