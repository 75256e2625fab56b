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

from repro.core.matching import (
    Matching,
    greedy_weighted_matching,
    is_valid_matching,
    matching_to_partner_array,
    max_cardinality_matching,
    randomly_max_match,
)
from repro.core.gossip import (
    AdaptivePeerSelector,
    FixedRingSelector,
    PeerSelectionResult,
    RandomPeerSelector,
    gossip_matrix_from_matching,
    ring_gossip_matrix,
)
from repro.core.protocol import Coordinator, RoundPlan
from repro.core.multipeer import (
    MultiPeerSelector,
    gossip_from_neighbor_sets,
    neighbor_sets_from_matchings,
    union_of_matchings,
)
from repro.core.ring_opt import (
    best_bottleneck_matching,
    best_bottleneck_ring,
    greedy_ring,
    ring_bottleneck,
    two_opt_ring,
)

__all__ = [
    "Matching",
    "max_cardinality_matching",
    "randomly_max_match",
    "greedy_weighted_matching",
    "is_valid_matching",
    "matching_to_partner_array",
    "AdaptivePeerSelector",
    "RandomPeerSelector",
    "FixedRingSelector",
    "PeerSelectionResult",
    "gossip_matrix_from_matching",
    "ring_gossip_matrix",
    "Coordinator",
    "RoundPlan",
    "MultiPeerSelector",
    "union_of_matchings",
    "neighbor_sets_from_matchings",
    "gossip_from_neighbor_sets",
    "ring_bottleneck",
    "best_bottleneck_ring",
    "best_bottleneck_matching",
    "greedy_ring",
    "two_opt_ring",
]
