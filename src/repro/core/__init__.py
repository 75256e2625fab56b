"""The paper's primary contribution: SAPS-PSGD core components.

* :mod:`repro.core.matching` — blossom maximum matching and the paper's
  ``RandomlyMaxMatch``.
* :mod:`repro.core.gossip` — Algorithm 3 (adaptive peer selection) and
  gossip-matrix construction.
* :mod:`repro.core.protocol` — Algorithm 1 (Coordinator) and the round
  plan it broadcasts.

The end-to-end training algorithm built on these lives in
:class:`repro.algorithms.SAPSPSGD`.
"""
