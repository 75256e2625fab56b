"""Tests for the network substrate: bandwidth, topology, metrics, transport."""

import numpy as np
import pytest

from repro.compression.base import SharedMaskPayload
from repro.network import (
    FIG1_BANDWIDTH_MBPS,
    FIG1_CITIES,
    SimulatedNetwork,
    bandwidth_stats,
    fig1_environment,
    random_uniform_bandwidth,
)
from repro.network.metrics import (
    CommunicationTimer,
    MB,
    TrafficMeter,
    utilized_bandwidth_per_round,
)
from repro.network.bandwidth import mbits_to_mbytes, symmetrize_min
from tests.conftest import settled_growth
from tests.graphs import (
    adjacency_from_edges,
    connected_components,
    is_connected,
    threshold_graph,
)


def payload_of(num_values):
    """A payload weighing ``num_values`` wire values."""
    return SharedMaskPayload(np.zeros(num_values), np.arange(num_values), mask_seed=0)


class TestFig1Data:
    def test_dimensions(self):
        assert FIG1_BANDWIDTH_MBPS.shape == (14, 14)
        assert len(FIG1_CITIES) == 14

    def test_diagonal_is_nan(self):
        assert np.all(np.isnan(np.diag(FIG1_BANDWIDTH_MBPS)))

    def test_spot_values_from_paper(self):
        """A few cells checked against the figure."""
        cities = FIG1_CITIES
        get = lambda a, b: FIG1_BANDWIDTH_MBPS[cities.index(a), cities.index(b)]
        assert get("AmaFrankfurtamMain", "AmaLondon") == 331.2
        assert get("AliBeijing", "AliShanghai") == 1.3
        assert get("AmaLondon", "AliBeijing") == 0.2
        assert get("AmaSaoPaulo", "AliBeijing") == 0.1

    def test_environment_symmetric_mbps(self):
        env = fig1_environment()
        assert env.shape == (14, 14)
        np.testing.assert_array_equal(env, env.T)
        assert np.all(np.diag(env) == 0)
        # London<->Beijing bottleneck is min(0.2, 1.6) = 0.2 Mbit/s = 0.025 MB/s.
        i, j = FIG1_CITIES.index("AmaLondon"), FIG1_CITIES.index("AliBeijing")
        assert env[i, j] == pytest.approx(0.2 / 8)


class TestBandwidthGenerators:
    def test_symmetrize_min(self):
        matrix = np.array([[np.nan, 3.0], [1.0, np.nan]])
        result = symmetrize_min(matrix)
        np.testing.assert_array_equal(result, [[0.0, 1.0], [1.0, 0.0]])

    def test_random_uniform_properties(self):
        matrix = random_uniform_bandwidth(16, rng=0)
        np.testing.assert_array_equal(matrix, matrix.T)
        off_diag = matrix[~np.eye(16, dtype=bool)]
        assert np.all(off_diag > 0.0)
        assert np.all(off_diag <= 5.0)

    def test_random_uniform_validation(self):
        with pytest.raises(ValueError):
            random_uniform_bandwidth(0)
        with pytest.raises(ValueError):
            random_uniform_bandwidth(4, low=5.0, high=5.0)

    def test_mbits_conversion(self):
        assert mbits_to_mbytes(np.array([8.0]))[0] == 1.0

    def test_stats(self):
        stats = bandwidth_stats(random_uniform_bandwidth(8, rng=1))
        assert 0 < stats["min"] <= stats["median"] <= stats["max"] <= 5.0


class TestTopology:
    def test_connectivity(self):
        disconnected = adjacency_from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(disconnected)
        assert is_connected(adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_isolated_vertex_not_connected(self):
        assert not is_connected(adjacency_from_edges(3, [(0, 1)]))

    def test_connected_components(self):
        adjacency = adjacency_from_edges(5, [(0, 1), (2, 3)])
        components = connected_components(adjacency)
        assert components == [[0, 1], [2, 3], [4]]

    @pytest.mark.parametrize("seed", range(12))
    def test_components_match_networkx(self, seed):
        """Frontier-at-a-time BFS: sparse graphs (many components, long
        paths) through dense ones, isolated vertices included."""
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 2.5 / n), 1)
        adjacency = upper | upper.T
        expected = sorted(
            sorted(part) for part in nx.connected_components(nx.from_numpy_array(adjacency))
        )
        assert connected_components(adjacency) == expected
        assert is_connected(adjacency) == (len(expected) == 1)

    def test_threshold_graph(self):
        bandwidth = np.array(
            [[0.0, 5.0, 1.0], [5.0, 0.0, 3.0], [1.0, 3.0, 0.0]]
        )
        graph = threshold_graph(bandwidth, 3.0)
        assert graph[0, 1] and graph[1, 2]
        assert not graph[0, 2]
        assert not np.any(np.diag(graph))


class TestTrafficMeter:
    def test_per_worker_accounting(self):
        meter = TrafficMeter(3)
        meter.record(0, 0, 1, 100)
        meter.record(0, 1, 0, 50)
        assert meter.worker_bytes(0) == 150
        assert meter.worker_bytes(1) == 150
        assert meter.worker_bytes(2) == 0

    def test_server_slot(self):
        meter = TrafficMeter(2)
        meter.record(0, TrafficMeter.SERVER, 0, 10)
        meter.record(0, 0, TrafficMeter.SERVER, 20)
        assert meter.server_traffic_mb() == pytest.approx(30 / MB)

    def test_mb_conversions(self):
        meter = TrafficMeter(2)
        meter.record(0, 0, 1, int(2 * MB))
        assert meter.worker_bytes(0) / MB == pytest.approx(2.0)
        assert meter.worker_bytes(1) / MB == pytest.approx(2.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TrafficMeter(2).record(0, 0, 1, -1)

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            TrafficMeter(2).record(0, 0, 5, 1)

    def test_memory_does_not_grow_with_transfers(self):
        """The meter keeps totals, not one object per transfer (which
        grew this by 10 MB)."""
        meter = TrafficMeter(4)
        growth = settled_growth(lambda _: meter.record(0, 0, 1, 4096))
        assert abs(growth) < 512
        assert meter.num_transfers == 100_000
        assert meter.size_counts == {4096: 100_000}


class TestCommunicationTimer:
    def test_round_time_is_max_concurrent(self):
        timer = CommunicationTimer()
        timer.add_transfer(10 * MB, 10.0)  # 1s
        timer.add_transfer(10 * MB, 2.0)  # 5s
        assert timer.finish_round() == pytest.approx(5.0)
        assert timer.total_seconds == pytest.approx(5.0)

    def test_empty_round(self):
        timer = CommunicationTimer()
        assert timer.finish_round() == 0.0

    def test_multiple_rounds_accumulate(self):
        timer = CommunicationTimer()
        timer.add_transfer(MB, 1.0)
        timer.finish_round()
        timer.add_transfer(2 * MB, 1.0)
        timer.finish_round()
        assert timer.total_seconds == pytest.approx(3.0)
        assert timer.round_seconds == pytest.approx([1.0, 2.0])

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            CommunicationTimer().add_transfer(MB, 0.0)

    def test_zero_bytes_free(self):
        timer = CommunicationTimer()
        assert timer.add_transfer(0, 1.0) == 0.0


class TestUtilizedBandwidth:
    def test_minimum_link(self):
        bandwidth = np.array(
            [[0, 5.0, 1.0], [5.0, 0, 2.0], [1.0, 2.0, 0]]
        )
        assert utilized_bandwidth_per_round([(0, 1), (1, 2)], bandwidth) == 2.0

    def test_empty_matching(self):
        assert utilized_bandwidth_per_round([], np.zeros((2, 2))) == float("inf")

    def test_single_pair_is_its_link(self):
        bandwidth = np.array([[0, 3.5], [3.5, 0]])
        assert utilized_bandwidth_per_round([(0, 1)], bandwidth) == 3.5

    def test_self_free_matching_ignores_diagonal(self):
        """A proper (self-free) matching never reads the zero diagonal,
        so the bottleneck is a real link speed even though every
        bandwidth matrix carries 0 on the diagonal."""
        bandwidth = np.array(
            [[0, 5.0, 1.0, 4.0], [5.0, 0, 2.0, 3.0],
             [1.0, 2.0, 0, 6.0], [4.0, 3.0, 6.0, 0]]
        )
        assert utilized_bandwidth_per_round([(0, 1), (2, 3)], bandwidth) == 5.0

    def test_direction_irrelevant_for_symmetric_matrix(self):
        bandwidth = np.array([[0, 2.0], [2.0, 0]])
        assert utilized_bandwidth_per_round(
            [(0, 1)], bandwidth
        ) == utilized_bandwidth_per_round([(1, 0)], bandwidth)

    def test_partial_matching_subset_bottleneck(self):
        """The bottleneck is the minimum over *matched* pairs only —
        unmatched workers' slow links do not count."""
        bandwidth = np.array(
            [[0, 5.0, 0.1], [5.0, 0, 0.1], [0.1, 0.1, 0]]
        )
        assert utilized_bandwidth_per_round([(0, 1)], bandwidth) == 5.0


class TestSimulatedNetwork:
    def test_send_accounts_bytes_and_time(self):
        bandwidth = np.array([[0.0, 2.0], [2.0, 0.0]])
        network = SimulatedNetwork(2, bandwidth=bandwidth)
        payload = payload_of(int(MB / 4))  # 1 MB
        network.send(0, 0, 1, payload)
        assert network.meter.worker_bytes(0) / MB == pytest.approx(1.0)
        assert network.finish_round() == pytest.approx(0.5)

    def test_exchange_symmetric(self):
        network = SimulatedNetwork(2)
        payload = payload_of(100)
        network.exchange(0, 0, 1, payload, payload)
        assert network.meter.worker_bytes(0) / MB == network.meter.worker_bytes(1) / MB

    def test_no_bandwidth_no_time(self):
        network = SimulatedNetwork(2)
        network.send(0, 0, 1, payload_of(100))
        assert network.finish_round() == 0.0

    def test_server_link(self):
        network = SimulatedNetwork(2, server_bandwidth=4.0)
        network.send_bytes(0, TrafficMeter.SERVER, 0, int(MB))
        assert network.finish_round() == pytest.approx(0.25)

    def test_server_link_defaults_to_the_fastest_link(self):
        bandwidth = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        assert SimulatedNetwork(3, bandwidth=bandwidth).server_bandwidth == 3.0
        assert SimulatedNetwork(
            3, bandwidth=bandwidth, server_bandwidth=0.5
        ).server_bandwidth == 0.5
        assert SimulatedNetwork(3).server_bandwidth is None

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            SimulatedNetwork(3, bandwidth=np.zeros((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_nan_or_negative_link_rejected_by_name(self, value):
        bandwidth = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        bandwidth[1, 2] = bandwidth[2, 1] = value
        with pytest.raises(ValueError, match=rf"bandwidth\[1, 2\] .* got {value}"):
            SimulatedNetwork(3, bandwidth=bandwidth)
        bandwidth[1, 2] = bandwidth[2, 1] = 0.0  # no link is legal
        assert SimulatedNetwork(3, bandwidth=bandwidth).bandwidth[1, 2] == 0.0

    @pytest.mark.parametrize("value", [np.nan, 0.0, -4.0])
    def test_bad_server_bandwidth_rejected(self, value):
        with pytest.raises(ValueError, match="server_bandwidth"):
            SimulatedNetwork(2, server_bandwidth=value)
