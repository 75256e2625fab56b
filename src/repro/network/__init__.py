"""Network substrate: bandwidth data, topologies, transport, accounting."""

from repro.network.bandwidth import (
    FIG1_BANDWIDTH_MBPS,
    FIG1_CITIES,
    bandwidth_stats,
    fig1_environment,
    random_uniform_bandwidth,
)
from repro.network.transport import SimulatedNetwork

__all__ = [
    "FIG1_BANDWIDTH_MBPS",
    "FIG1_CITIES",
    "fig1_environment",
    "random_uniform_bandwidth",
    "bandwidth_stats",
    "SimulatedNetwork",
]
