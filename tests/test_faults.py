"""Tests for SAPS-PSGD under lossy links (a fault plan's link outages)."""

from itertools import combinations

from repro.algorithms import SAPSPSGD
from repro.data import make_blobs, partition_iid
from repro.network import SimulatedNetwork
from repro.nn import MLP
from repro.sim import ExperimentConfig, FaultPlan, run_experiment


LINKS = list(combinations(range(6), 2))


def _link_outages(links, down, up):
    """A plan with ``links`` scripted down over rounds ``[down, up)``, at
    one round per second."""
    events = ",".join(
        f"link_down:{a}-{b}@{down},link_up:{a}-{b}@{up}" for a, b in links
    )
    return FaultPlan.parse(events, 6)


class TestSAPSUnderLoss:
    def _setup(self, fault_plan, seed=61, rounds=60, spy=None):
        full = make_blobs(num_samples=440, num_classes=4, num_features=8, rng=seed)
        train, validation = full.split(fraction=0.8, rng=seed)
        partitions = partition_iid(train, 6, rng=seed)
        config = ExperimentConfig(
            rounds=rounds, batch_size=16, lr=0.2, eval_every=20, seed=seed
        )
        algorithm = SAPSPSGD(compression_ratio=5.0, fault_plan=fault_plan)
        if spy is not None:
            exchange_lost = algorithm.exchange_lost
            algorithm.exchange_lost = lambda *args: spy(exchange_lost(*args))
        result = run_experiment(
            algorithm, partitions, validation,
            lambda: MLP(8, [16], 4, rng=seed), config, SimulatedNetwork(6),
        )
        return algorithm, result

    def test_converges_under_moderate_loss(self):
        # A third of the links down for half of the run.
        algorithm, result = self._setup(_link_outages(LINKS[::3], 10, 40))
        assert result.final_accuracy > 0.8
        assert algorithm.dropped_exchanges > 0

    def test_total_loss_stalls_consensus_but_does_not_crash(self):
        algorithm, result = self._setup(_link_outages(LINKS, 0, 20), rounds=20)
        # Every exchange dropped -> workers never mix.
        assert algorithm.dropped_exchanges == algorithm.num_workers // 2 * 20
        assert result.history[-1].consensus_distance > 0

    def test_loss_reduces_consensus_quality(self):
        _, clean = self._setup(None)
        _, lossy = self._setup(_link_outages(LINKS[::2], 0, 60))
        assert (
            lossy.history[-1].consensus_distance
            >= clean.history[-1].consensus_distance * 0.5
        )

    def test_dropped_exchange_counter_matches_model(self):
        outcomes = []

        def record(lost):
            outcomes.append(lost)
            return lost

        algorithm, _ = self._setup(_link_outages(LINKS[1::3], 5, 50), spy=record)
        assert 0 < sum(outcomes) < len(outcomes)
        assert algorithm.dropped_exchanges == sum(outcomes)
