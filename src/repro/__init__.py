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
* ``repro.theory`` — Assumption 3's ``ρ``, consensus contraction, Theorem 2.
* ``repro.analysis`` — Table I cost model, Table IV extraction, rendering.
* ``repro.obs`` — telemetry: metrics registry, phase spans, Chrome traces.

Each subpackage is imported on its own (``import repro`` loads none of
them).  Quickstart: ``examples/quickstart.py`` runs SAPS-PSGD end to end
— blobs, an MLP, random bandwidths — and prints its trajectory.
"""

from repro.version import __version__

__all__ = ["__version__"]
