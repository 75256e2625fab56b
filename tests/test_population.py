"""Client-population arrival processes and their engine integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventEngine, RenewalPopulation, parse_population
from repro.utils import rng as rng_module
from tests.reference import population as reference


class TestRenewalPopulation:
    def test_deterministic_and_query_order_independent(self):
        a = RenewalPopulation(100, mean_up=10, mean_down=5, seed=3)
        b = RenewalPopulation(100, mean_up=10, mean_down=5, seed=3)
        # Query b in reverse order at scattered times: same answers.
        times = [0.0, 3.7, 12.2, 50.0]
        for t in times:
            for c in range(100):
                assert a.is_up(c, t) == b.is_up(99 - (99 - c), t)
        for c in range(0, 100, 7):
            assert a.next_up(c, 25.0) == b.next_up(c, 25.0)

    def test_next_up_is_an_up_time(self):
        pop = RenewalPopulation(200, mean_up=5, mean_down=5, seed=0)
        for c in range(200):
            t = pop.next_up(c, 13.0)
            assert t >= 13.0
            assert pop.is_up(c, t + 1e-9)
            if t > 13.0:
                assert not pop.is_up(c, 13.0)

    def test_alternating_intervals(self):
        pop = RenewalPopulation(5, mean_up=4, mean_down=2, seed=1)
        initially_up, toggles = pop._timeline(0, 100.0)
        assert toggles == sorted(toggles)
        state = initially_up
        for i, t in enumerate(toggles[:-1]):
            assert pop.is_up(0, (t + toggles[i + 1]) / 2) == (not state)
            state = not state

    def test_sample_up_returns_up_distinct_sorted(self):
        pop = RenewalPopulation(5000, mean_up=60, mean_down=30, seed=2)
        rng = np.random.default_rng(0)
        sample = pop.sample_up(7.5, 100, rng)
        assert len(sample) == 100
        assert sample == sorted(set(sample))
        assert all(pop.is_up(c, 7.5) for c in sample)

    def test_lazy_memory(self):
        pop = RenewalPopulation(1_000_000, seed=0)
        rng = np.random.default_rng(0)
        pop.sample_up(1.0, 50, rng)
        # Rejection sampling touches ~ sample / availability clients,
        # never the million.
        assert pop.touched_clients < 5000

    def test_stationary_availability(self):
        pop = RenewalPopulation(4000, mean_up=60, mean_down=30, seed=5)
        up = sum(pop.is_up(c, 0.0) for c in range(4000))
        assert abs(up / 4000 - 2 / 3) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            RenewalPopulation(10, mean_up=0.0)
        pop = RenewalPopulation(10)
        with pytest.raises(ValueError):
            pop.is_up(10, 0.0)
        with pytest.raises(ValueError):
            pop.next_up(0, -1.0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("name", ["mean_up", "mean_down"])
    def test_non_finite_means_are_refused(self, name, mean):
        """NaN <= 0 is False: a NaN mean once made nobody ever up."""
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            RenewalPopulation(10, **{name: mean})

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_is_refused(self, time):
        """An infinite time once never returned (toggles were appended
        without end); a NaN one answered as if past every toggle drawn,
        and ``next_up`` of a client down there raised an IndexError."""
        pop = RenewalPopulation(10)
        for query in (pop.is_up, pop.next_up):
            with pytest.raises(ValueError, match="time must be finite"):
                query(0, time)
        with pytest.raises(ValueError, match="time must be finite"):
            pop.sample_up(time, 3, np.random.default_rng(0))


#: One population query: ("is_up" | "next_up", client, time) or
#: ("sample_up", time, count, rng seed).
_QUERY = st.one_of(
    st.tuples(
        st.sampled_from(["is_up", "next_up"]), st.integers(0, 59),
        st.floats(0.0, 80.0),
    ),
    st.tuples(
        st.just("sample_up"), st.floats(0.0, 80.0), st.integers(0, 70),
        st.integers(0, 2**32),
    ),
)


class TestAgainstTheOracle:
    """The batch-seeded population answers every interleaving of queries
    as the per-client-``Generator`` one did (``tests/reference/
    population.py``), touching the same clients: times jump back and
    forth, so timelines are extended by replay again and again."""

    @settings(max_examples=120, deadline=None)
    @given(
        queries=st.lists(_QUERY, min_size=1, max_size=25),
        means=st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 8.0)),
        seed=st.integers(0, 2**20),
    )
    def test_same_answers_and_touched_clients(self, queries, means, seed):
        mean_up, mean_down = means
        pop = RenewalPopulation(60, mean_up=mean_up, mean_down=mean_down, seed=seed)
        oracle = reference.RenewalPopulation(
            60, mean_up=mean_up, mean_down=mean_down, seed=seed
        )
        for query in queries:
            if query[0] == "sample_up":
                _, time, count, draw_seed = query
                answers = [
                    side.sample_up(time, count, np.random.default_rng(draw_seed))
                    for side in (pop, oracle)
                ]
            else:
                name, client, time = query
                answers = [getattr(side, name)(client, time) for side in (pop, oracle)]
            assert answers[0] == answers[1], query
            assert pop.touched_clients == oracle.touched_clients
        for client, (initially_up, toggles, _) in oracle._timelines.items():
            assert pop._timelines[client][:2] == (initially_up, toggles)

    def test_a_sampling_batch_is_seeded_in_one_pass(self, monkeypatch):
        """``sample_up`` seeds its candidates' never-touched clients
        together: one pass per candidate batch, not one per client."""
        sizes = []
        seeded = rng_module.pcg64_states
        monkeypatch.setattr(
            rng_module, "pcg64_states", lambda seeds: sizes.append(len(seeds)) or seeded(seeds)
        )
        pop = RenewalPopulation(100_000, seed=2)
        pop.sample_up(1.0, 64, np.random.default_rng(0))
        assert sum(sizes) == pop.touched_clients
        assert sizes[0] == 64 and len(sizes) < 10


class TestParsePopulation:
    def test_specs(self):
        assert parse_population(None, 10) is None
        assert parse_population("none", 10) is None
        assert parse_population("", 10) is None
        assert parse_population("always", 10) is None
        pop = parse_population("renewal:up=5,down=2", 10, seed=4)
        assert isinstance(pop, RenewalPopulation)
        assert pop.mean_up == 5.0 and pop.mean_down == 2.0 and pop.seed == 4
        defaults = parse_population("renewal", 10)
        assert defaults.mean_up == 60.0 and defaults.mean_down == 30.0

    def test_friendly_errors(self):
        with pytest.raises(ValueError, match="known: up, down"):
            parse_population("renewal:sideways=1", 10)
        with pytest.raises(ValueError, match="key=value"):
            parse_population("renewal:updown", 10)
        with pytest.raises(ValueError, match="expected"):
            parse_population("tidal", 10)


class TestEnginePopulationGating:
    def _run(self, population=None, sample_size=None):
        from repro.algorithms import AsyncFedAvg
        from repro.data import make_blobs, partition_iid
        from repro.nn import MLP
        from repro.sim import ConstantCompute, ExperimentConfig
        from repro.sim.events import run_event_experiment

        full = make_blobs(num_samples=300, num_classes=4, num_features=8, rng=0)
        train, validation = full.split(fraction=0.8, rng=0)
        partitions = partition_iid(train, 6, rng=0)
        config = ExperimentConfig(rounds=8, batch_size=8, seed=0)
        algorithm = AsyncFedAvg(local_steps=2, sample_size=sample_size)
        return algorithm, run_event_experiment(
            algorithm, partitions, validation,
            lambda: MLP(8, [8], 4, rng=0), config,
            compute_model=ConstantCompute(0.05),
            duration=5.0, checkpoint_every=2.5,
            population=population,
        )

    def test_renewal_population_defers_down_workers(self):
        pop = RenewalPopulation(6, mean_up=2.0, mean_down=2.0, seed=9)
        _, gated = self._run(population=pop)
        _, free = self._run(population=None)
        # Half the up-time means strictly less work gets done.
        assert gated.total_local_steps < free.total_local_steps
        assert gated.total_local_steps > 0

    def test_sampled_pool_bounds_concurrency(self):
        algorithm, result = self._run(sample_size=2)
        assert result.total_local_steps > 0
        # Every upload frees one seat: uploads ≈ cycles, and no more
        # than sample_size clients hold a seat at the end.
        assert len(algorithm._active) <= 2

    def test_population_size_mismatch_rejected(self):
        from repro.network.transport import SimulatedNetwork

        with pytest.raises(ValueError, match="population"):
            EventEngine(SimulatedNetwork(4), population=RenewalPopulation(5))
