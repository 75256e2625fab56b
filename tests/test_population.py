"""Client-population arrival processes and their engine integration."""

import numpy as np
import pytest

from repro.sim import EventEngine, RenewalPopulation, parse_population


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
