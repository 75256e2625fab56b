"""Random-number-generator plumbing.

The paper's mask scheme depends on *all* workers generating the identical
mask from a coordinator-broadcast seed (Algorithm 2, line 6).  To make that
reproducible across the whole library we standardize on
:class:`numpy.random.Generator` and deterministic seed derivation.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple, Union

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


# numpy's SeedSequence → PCG64 seeding (``numpy/random/bit_generator.pyx``,
# ``_pcg64.pyx``) in closed form.
_MASK32 = 0xFFFFFFFF
_MASK63 = (1 << 63) - 1
_MASK128 = (1 << 128) - 1
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Below this many seeds the hash runs on Python ints (~7.5 µs a seed on
#: a 2-core x86-64); from it on, on uint64 lanes, whose ~190 ufunc calls
#: cost a fixed ~0.14 ms.  The two cross at 20 seeds there.
VECTOR_MIN_SEEDS = 20


def _seed_halves(seeds):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for 63-bit
    ``seeds``: a Python ``int`` or a ``uint64`` array, lane by lane.

    numpy's ``mix_entropy`` and ``generate_state`` loops, unrolled: each
    step xors a word with the running hash constant, advances it and
    multiplies by it, so the constants inlined below are that chain's
    values (from ``INIT_A`` = 0x43b0d7e5 by ``MULT_A`` = 0x931e8875 for
    the pool, from ``INIT_B`` = 0x8b51f9dd by ``MULT_B`` = 0x58f38ded for
    the output).  A loop over a table of them costs ~20 % more a seed on
    Python ints, more than a one-key call's whole margin over
    ``default_rng``.

    A seed's entropy is its 32-bit words, low first.  A seed below 2³²
    has one word, but the pool pads it with a hashed 0, which is what a
    zero high word hashes to, so every seed takes the two-word path.
    Every ``& m`` comes before a shift: products of two 32-bit words fit
    64 bits, and a negative Python difference masks to the same low 32
    bits as a wrapped uint64 one.
    """
    m, left, right = _MASK32, _MIX_MULT_L, _MIX_MULT_R
    # Fill: the low and high entropy words, then the two zero words
    # padding the pool, whose hashes are constants.
    a = ((seeds & m) ^ 0x43b0d7e5) * 0xae5a53a9 & m
    a ^= a >> 16
    b = ((seeds >> 32) ^ 0xae5a53a9) * 0x8488043d & m
    b ^= b >> 16
    c, d = 0x894cfdd1, 0x30409f75
    # Mix: each word, hashed, into every other word in turn.
    h = (a ^ 0x9205b1d5) * 0xe9096e59 & m
    b = (left * b - right * (h ^ h >> 16)) & m
    b ^= b >> 16
    h = (a ^ 0xe9096e59) * 0x8d5cb6ad & m
    c = (left * c - right * (h ^ h >> 16)) & m
    c ^= c >> 16
    h = (a ^ 0x8d5cb6ad) * 0x9bb16511 & m
    d = (left * d - right * (h ^ h >> 16)) & m
    d ^= d >> 16
    h = (b ^ 0x9bb16511) * 0x00c238c5 & m
    a = (left * a - right * (h ^ h >> 16)) & m
    a ^= a >> 16
    h = (b ^ 0x00c238c5) * 0x4d029a09 & m
    c = (left * c - right * (h ^ h >> 16)) & m
    c ^= c >> 16
    h = (b ^ 0x4d029a09) * 0xcc132e1d & m
    d = (left * d - right * (h ^ h >> 16)) & m
    d ^= d >> 16
    h = (c ^ 0xcc132e1d) * 0x83a97b41 & m
    a = (left * a - right * (h ^ h >> 16)) & m
    a ^= a >> 16
    h = (c ^ 0x83a97b41) * 0xfa8ddcb5 & m
    b = (left * b - right * (h ^ h >> 16)) & m
    b ^= b >> 16
    h = (c ^ 0xfa8ddcb5) * 0xac4c06b9 & m
    d = (left * d - right * (h ^ h >> 16)) & m
    d ^= d >> 16
    h = (d ^ 0xac4c06b9) * 0x26ff5a8d & m
    a = (left * a - right * (h ^ h >> 16)) & m
    a ^= a >> 16
    h = (d ^ 0x26ff5a8d) * 0x0e554a71 & m
    b = (left * b - right * (h ^ h >> 16)) & m
    b ^= b >> 16
    h = (d ^ 0x0e554a71) * 0x78c50da5 & m
    c = (left * c - right * (h ^ h >> 16)) & m
    c ^= c >> 16
    # Output: 8 words cycling over the pool, paired little-endian.
    w0 = (a ^ 0x8b51f9dd) * 0x464a0a99 & m
    w1 = (b ^ 0x464a0a99) * 0x819d14a5 & m
    w2 = (c ^ 0x819d14a5) * 0xd369fdc1 & m
    w3 = (d ^ 0xd369fdc1) * 0x501638ad & m
    w4 = (a ^ 0x501638ad) * 0xa600c129 & m
    w5 = (b ^ 0xa600c129) * 0x8b0167f5 & m
    w6 = (c ^ 0x8b0167f5) * 0x5c1e2ed1 & m
    w7 = (d ^ 0x5c1e2ed1) * 0x301d747d & m
    return [
        (w0 ^ w0 >> 16) | (w1 ^ w1 >> 16) << 32,
        (w2 ^ w2 >> 16) | (w3 ^ w3 >> 16) << 32,
        (w4 ^ w4 >> 16) | (w5 ^ w5 >> 16) << 32,
        (w6 ^ w6 >> 16) | (w7 ^ w7 >> 16) << 32,
    ]


def _pcg64_seeded(high: int, low: int, seq_high: int, seq_low: int) -> Tuple[int, int]:
    """PCG64's ``(state, inc)`` after ``pcg64_srandom_r(initstate,
    initseq)``: ``inc = 2·initseq + 1``, then two LCG steps from 0 with
    ``initstate`` added between them."""
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
    state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
    return state, inc


def pcg64_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for each seed in
    ``[0, 2⁶³)``: the seeding ``default_rng(seed)`` does, in closed form
    and in one pass over the seeds."""
    if len(seeds) < VECTOR_MIN_SEEDS:
        return [_pcg64_seeded(*_seed_halves(seed)) for seed in seeds]
    halves = _seed_halves(np.asarray(seeds, dtype=np.uint64))
    return [_pcg64_seeded(*row) for row in zip(*(h.tolist() for h in halves))]


class Substreams:
    """The ``default_rng(derive_seed(base_seed, *labels, *key))`` streams
    of many keys, served by one reusable :class:`~numpy.random.Generator`.

    :meth:`states` seeds a batch of keys in one pass (each key's seed
    hashes the bytes :func:`derive_seed` hashes, the PCG64 states come
    from :func:`pcg64_states`); :meth:`at` re-points the owned generator
    at one of them, after which every draw equals a fresh ``default_rng``
    on that key's seed.  Each owner holds its own instance: the generator
    is not for sharing across threads.
    """

    def __init__(self, base_seed: int, *labels: Union[int, str]) -> None:
        self._prefix = "|".join([str(int(base_seed)), *map(str, labels)])
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._inner = {"state": 0, "inc": 0}
        self._state = {
            "bit_generator": "PCG64",
            "state": self._inner,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def states(self, keys: Sequence[Tuple]) -> List[Tuple[int, int]]:
        """PCG64 ``(state, inc)`` per key (a tuple of ``derive_seed``
        components following the labels)."""
        prefix = self._prefix
        return pcg64_states([
            int.from_bytes(
                hashlib.sha256("|".join([prefix, *map(str, key)]).encode()).digest()[:8],
                "little",
            ) & _MASK63
            for key in keys
        ])

    def at(self, state: Tuple[int, int]) -> np.random.Generator:
        """The owned generator, positioned at the start of ``state``'s
        stream (no buffered half-word left from an earlier key)."""
        self._inner["state"], self._inner["inc"] = state
        self._bit_generator.state = self._state
        return self._generator
