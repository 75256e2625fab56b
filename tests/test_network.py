"""Tests for the network substrate: bandwidth, topology, metrics, transport."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import BatchPayload
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
from tests.reference import network as per_transfer_network


def batch_of(num_values, rows=2):
    """A shared-mask batch whose rows weigh ``num_values`` wire values."""
    return BatchPayload(np.zeros((rows, num_values)), np.arange(num_values))


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

    def test_round_record_totals(self):
        meter = TrafficMeter(3)
        meter.record_round(
            np.array([0, 1, TrafficMeter.SERVER]), np.array([1, 0, 2]),
            np.array([100, 50, 7]),
        )
        assert meter.worker_bytes(0) == meter.worker_bytes(1) == 150
        assert meter.worker_bytes(2) == 7
        assert meter.server_traffic_mb() == pytest.approx(7 / MB)
        assert meter.size_counts == {7: 1, 50: 1, 100: 1}
        assert type(meter.total_bytes) is int and meter.total_bytes == 157
        assert type(meter.num_transfers) is int and meter.num_transfers == 3

    @pytest.mark.parametrize(
        "senders, receivers, num_bytes, message",
        [
            ([0, 5], [1, 0], [1, 1], "node 5 out of range"),
            ([0, 1], [-2, 0], [1, 1], "node -2 out of range"),
            ([0, 1], [1, 0], [3, -4], "got -4"),
        ],
    )
    def test_round_record_rejects_by_value(self, senders, receivers, num_bytes, message):
        meter = TrafficMeter(2)
        with pytest.raises(ValueError, match=message):
            meter.record_round(np.array(senders), np.array(receivers), np.array(num_bytes))
        assert meter.num_transfers == 0 and not meter._sent.any()


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
        network.send(0, [0], [1], batch_of(int(MB / 4)))  # 1 MB
        assert network.meter.worker_bytes(0) / MB == pytest.approx(1.0)
        assert network.finish_round() == pytest.approx(0.5)

    def test_exchange_symmetric(self):
        network = SimulatedNetwork(2)
        network.exchange(0, [0], [1], batch_of(100))
        assert network.meter.worker_bytes(0) == network.meter.worker_bytes(1) == 800
        assert network.meter.num_transfers == 2

    def test_no_bandwidth_no_time(self):
        network = SimulatedNetwork(2)
        network.send(0, [0], [1], batch_of(100))
        assert network.finish_round() == 0.0

    def test_server_link(self):
        network = SimulatedNetwork(2, server_bandwidth=4.0)
        network.send_bytes(0, [TrafficMeter.SERVER], [0], int(MB))
        assert network.finish_round() == pytest.approx(0.25)

    def test_transfer_over_no_link_names_its_ends_and_round(self):
        bandwidth = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        network = SimulatedNetwork(3, bandwidth=bandwidth)
        network.send_bytes(4, [0, 2], [2, 0], 0)  # no bytes, no time
        with pytest.raises(
            ValueError, match=r"round 4: worker 2 -> worker 0 has no link \(bandwidth 0.0"
        ):
            network.send_bytes(4, [0, 2], [1, 0], [8, 8])

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


@st.composite
def transfer_phases(draw):
    """A network (no time, server time only, or a full matrix) and 1-4
    phases, each up to 12 linked transfers (server ends, repeated links,
    zero bytes and mixed sizes) plus at most one collective."""
    n = draw(st.integers(2, 6))
    node = st.integers(TrafficMeter.SERVER, n - 1)
    size = st.sampled_from([0, 4, 400, 4096, 123_457, 2**33])
    transfer = st.tuples(node, node, size).filter(lambda t: t[0] != t[1])
    phase = st.tuples(st.lists(transfer, max_size=12), st.none() | size)
    timed = draw(st.sampled_from(["none", "server", "matrix"]))
    bandwidth = random_uniform_bandwidth(n, low=0.5, rng=draw(st.integers(0, 9)))
    return (
        n,
        bandwidth if timed == "matrix" else None,
        3.0 if timed == "server" else None,
        draw(st.lists(phase, min_size=1, max_size=4)),
    )


class TestArrayRecordEqualsPerTransfer:
    """One array call per phase meters and times what the per-transfer
    ``record`` / ``add_transfer`` loop of ``tests/reference/network.py``
    does: the same per-node totals, run totals (as Python ints), size
    counts, phase times and transfers."""

    @settings(max_examples=150, deadline=None)
    @given(transfer_phases())
    def test_same_accounting(self, case):
        n, bandwidth, server_bandwidth, phases = case
        ours = SimulatedNetwork(n, bandwidth=bandwidth, server_bandwidth=server_bandwidth)
        theirs = per_transfer_network.per_transfer(
            SimulatedNetwork(n, bandwidth=bandwidth, server_bandwidth=server_bandwidth)
        )
        for index, (transfers, collective) in enumerate(phases):
            senders, receivers, sizes = (
                np.array(column, dtype=np.int64).reshape(-1)
                for column in (zip(*transfers) if transfers else ([], [], []))
            )
            ours.send_bytes(index, senders, receivers, sizes)
            for transfer in transfers:
                per_transfer_network.send_bytes(theirs, index, *transfer)
            if collective is not None:
                ours.timer.add_transfer(collective, 2.5)
                theirs.timer.add_transfer(collective, 2.5)
            assert ours.finish_round() == theirs.finish_round()
            durations, senders, receivers = ours.timer.last_round_transfers
            assert Counter(
                (0.0, duration, None if sender == CommunicationTimer.COLLECTIVE
                 else (("tx", sender), ("rx", receiver)))
                for duration, sender, receiver in zip(
                    durations.tolist(), senders.tolist(), receivers.tolist()
                )
            ) == Counter(theirs.timer.last_round_transfers)
        np.testing.assert_array_equal(ours.meter._sent, theirs.meter._sent)
        np.testing.assert_array_equal(ours.meter._received, theirs.meter._received)
        assert type(ours.meter.total_bytes) is int
        assert ours.meter.total_bytes == theirs.meter.total_bytes
        assert ours.meter.num_transfers == theirs.meter.num_transfers
        assert ours.meter.size_counts == theirs.meter.size_counts
        assert ours.timer.round_seconds == theirs.timer.round_seconds
        assert ours.timer.total_seconds == theirs.timer.total_seconds
