"""repro — reproduction of SAPS-PSGD (Tang, Shi, Chu; ICDCS 2020).

"Communication-Efficient Decentralized Learning with Sparsification and
Adaptive Peer Selection."

Public API tour
---------------
* ``repro.core`` — the contribution: blossom matching, Algorithm 3's
  adaptive peer selection, the coordinator/worker protocol.
* ``repro.algorithms`` — SAPS-PSGD and the seven compared baselines.
* ``repro.sim`` — the experiment engine and the 7-algorithm comparison
  harness.
* ``repro.nn`` / ``repro.data`` — the pure-numpy training substrate.
* ``repro.network`` — bandwidth matrices (incl. the paper's Fig. 1 data),
  topologies, traffic/time accounting.
* ``repro.compression`` — random-mask/top-k sparsifiers, error feedback.
* ``repro.theory`` — spectral gap, consensus contraction, Theorem 2.
* ``repro.analysis`` — Table I cost model, Table IV extraction, rendering.
* ``repro.obs`` — telemetry: metrics registry, phase spans, Chrome traces.

Quickstart::

    from repro import quick_saps_run
    result = quick_saps_run(num_workers=8, rounds=40, seed=1)
    print(result.final_accuracy, result.history[-1].worker_traffic_mb)
"""

from repro.version import __version__

from repro import (
    algorithms,
    analysis,
    compression,
    core,
    data,
    network,
    nn,
    obs,
    presets,
    sim,
    theory,
    utils,
)


def quick_saps_run(
    num_workers: int = 8,
    rounds: int = 40,
    compression_ratio: float = 100.0,
    seed: int = 0,
):
    """Smallest end-to-end SAPS-PSGD run: blobs + MLP + random bandwidths.

    Returns the :class:`repro.sim.ExperimentResult` trajectory.
    """
    from repro.data import make_blobs, partition_iid
    from repro.network import random_uniform_bandwidth, SimulatedNetwork
    from repro.nn import MLP
    from repro.sim import ExperimentConfig, run_experiment
    from repro.algorithms import SAPSPSGD

    full = make_blobs(num_samples=60 * num_workers + 200, rng=seed)
    train, validation = full.split(
        fraction=(60 * num_workers) / len(full), rng=seed
    )
    partitions = partition_iid(train, num_workers, rng=seed)
    bandwidth = random_uniform_bandwidth(num_workers, rng=seed)
    network = SimulatedNetwork(num_workers, bandwidth=bandwidth)
    config = ExperimentConfig(rounds=rounds, batch_size=16, lr=0.1, seed=seed)
    algorithm = SAPSPSGD(compression_ratio=compression_ratio, base_seed=seed)
    return run_experiment(
        algorithm,
        partitions,
        validation,
        model_factory=lambda: MLP(32, [32], 10, rng=seed),
        config=config,
        network=network,
    )


__all__ = [
    "__version__",
    "core",
    "algorithms",
    "sim",
    "nn",
    "data",
    "network",
    "compression",
    "theory",
    "analysis",
    "obs",
    "utils",
    "presets",
    "quick_saps_run",
]
