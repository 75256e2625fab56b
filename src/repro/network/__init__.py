"""Network substrate: bandwidth data, topologies, transport, accounting."""

from repro.network.bandwidth import (
    FIG1_BANDWIDTH_MBPS,
    FIG1_CITIES,
    bandwidth_stats,
    fig1_environment,
    mbits_to_mbytes,
    random_uniform_bandwidth,
    symmetrize_min,
)
from repro.network.topology import (
    connected_components,
    is_connected,
    threshold_graph,
)
from repro.network.metrics import (
    MB,
    CommunicationTimer,
    TrafficMeter,
    utilized_bandwidth_per_round,
)
from repro.network.transport import SimulatedNetwork
from repro.network.estimation import (
    BandwidthEstimator,
    DriftingBandwidth,
    measure_bandwidth,
)

__all__ = [
    "FIG1_BANDWIDTH_MBPS",
    "FIG1_CITIES",
    "fig1_environment",
    "mbits_to_mbytes",
    "symmetrize_min",
    "random_uniform_bandwidth",
    "bandwidth_stats",
    "is_connected",
    "connected_components",
    "threshold_graph",
    "MB",
    "TrafficMeter",
    "CommunicationTimer",
    "utilized_bandwidth_per_round",
    "SimulatedNetwork",
    "DriftingBandwidth",
    "measure_bandwidth",
    "BandwidthEstimator",
]
