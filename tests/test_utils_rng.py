"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    VECTOR_MIN_SEEDS,
    Substreams,
    as_generator,
    derive_seed,
    pcg64_states,
    spawn_generators,
)


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_generator(1).random(5), as_generator(2).random(5))

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_streams_are_independent(self):
        streams = spawn_generators(0, 3)
        draws = [stream.random(10) for stream in streams]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic_from_seed(self):
        first = [g.random(4) for g in spawn_generators(9, 3)]
        second = [g.random(4) for g in spawn_generators(9, 3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "mask", 5) == derive_seed(1, "mask", 5)

    def test_component_sensitivity(self):
        assert derive_seed(1, "mask", 5) != derive_seed(1, "mask", 6)
        assert derive_seed(1, "mask", 5) != derive_seed(1, "other", 5)
        assert derive_seed(1, "mask", 5) != derive_seed(2, "mask", 5)

    def test_range(self):
        seed = derive_seed(123, "x", 0)
        assert 0 <= seed < 2**63

    def test_no_component_collision_from_concatenation(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


#: Seeds at the hash's word boundaries: one 32-bit word or two.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def _numpy_state(seed):
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


def _draws(generator):
    """One of each draw the library makes off a seeded stream."""
    return (
        generator.integers(10, size=7).tolist(),
        generator.integers(2**40, size=3).tolist(),
        generator.integers(1000, size=5, dtype=np.uint32).tolist(),
        generator.normal(size=6).tobytes(),
        generator.uniform(1.0, 100.0),
        generator.random(),
        generator.exponential(3.0, size=4).tobytes(),
        generator.standard_exponential(),
    )


class TestPcg64States:
    """The closed-form seeding equals numpy's ``SeedSequence`` →
    ``PCG64`` seeding, on Python ints (few seeds) and on uint64 lanes."""

    @settings(max_examples=80, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(EDGE_SEEDS)),
            min_size=1, max_size=2 * VECTOR_MIN_SEEDS + 8,
        )
    )
    def test_states_equal_numpys(self, seeds):
        assert pcg64_states(seeds) == [_numpy_state(seed) for seed in seeds]

    def test_both_paths_are_taken(self):
        few, many = EDGE_SEEDS, EDGE_SEEDS * VECTOR_MIN_SEEDS
        assert len(few) < VECTOR_MIN_SEEDS <= len(many)
        assert pcg64_states(many) == pcg64_states(few) * VECTOR_MIN_SEEDS

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(EDGE_SEEDS)),
            min_size=2, max_size=VECTOR_MIN_SEEDS + 4,
        ),
        odd=st.integers(0, 4).map(lambda n: 2 * n + 1),
    )
    def test_repointed_draws_equal_a_fresh_generator(self, seeds, odd):
        """Every draw after :meth:`Substreams.at` equals a fresh
        ``default_rng`` on the seed, even after the previous key left a
        buffered half-word (an odd count of uint32 draws)."""
        streams = Substreams(0)
        states = pcg64_states(seeds)
        for seed, state in zip(seeds, states):
            generator = streams.at(state)
            assert _draws(generator) == _draws(np.random.default_rng(seed))
            generator.integers(7, size=odd, dtype=np.uint32)
            assert generator.bit_generator.state["has_uint32"] == 1


class TestSubstreams:
    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(0, 2**40),
        keys=st.lists(
            st.tuples(st.integers(0, 10**9), st.integers(0, 10**6)),
            min_size=0, max_size=2 * VECTOR_MIN_SEEDS,
        ),
    )
    def test_states_are_the_derived_seeds(self, base, keys):
        streams = Substreams(base, "client")
        assert streams.states(keys) == [
            _numpy_state(derive_seed(base, "client", *key)) for key in keys
        ]

    def test_one_component_keys_and_several_labels(self):
        streams = Substreams(9, "a", 3)
        (state,) = streams.states([(17,)])
        assert state == _numpy_state(derive_seed(9, "a", 3, 17))
        assert streams.at(state).random() == np.random.default_rng(
            derive_seed(9, "a", 3, 17)
        ).random()
