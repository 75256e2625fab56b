"""Random-number-generator plumbing.

The paper's mask scheme depends on *all* workers generating the identical
mask from a coordinator-broadcast seed (Algorithm 2, line 6).  To make that
reproducible across the whole library we standardize on
:class:`numpy.random.Generator` and deterministic seed derivation.
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an ``int`` (deterministic), or
    an existing ``Generator`` (returned unchanged so callers can thread a
    single RNG through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed.

    Used to give each simulated worker its own stream (for data sampling)
    while keeping the whole experiment reproducible from a single seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(
        seed if isinstance(seed, int) else as_generator(seed).integers(2**31)
    )
    return [np.random.default_rng(child) for child in root.spawn(count)]


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Derive a deterministic 63-bit sub-seed from a base seed and labels.

    The coordinator uses this to produce the per-round mask seed ``s``
    (Algorithm 1, line 5): ``derive_seed(experiment_seed, "mask", t)`` is
    stable across workers and runs.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode())
    for component in components:
        hasher.update(b"|")
        hasher.update(str(component).encode())
    return int.from_bytes(hasher.digest()[:8], "little") & ((1 << 63) - 1)
