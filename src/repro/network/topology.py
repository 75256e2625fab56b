"""Graph utilities: the connectivity predicates and the bandwidth
threshold graph Algorithm 3 needs.

Graphs are represented as symmetric boolean adjacency matrices with a
zero diagonal.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.validation import check_square


def _component_of(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Mask of the vertices reachable from ``start`` — breadth-first, a
    whole frontier per step rather than a vertex."""
    member = np.zeros(adjacency.shape[0], dtype=bool)
    member[start] = True
    frontier = np.array([start])
    while frontier.size:
        reached = adjacency[frontier].any(axis=0) & ~member
        member |= reached
        frontier = np.flatnonzero(reached)
    return member


def is_connected(adjacency: np.ndarray) -> bool:
    """BFS connectivity test on a symmetric adjacency matrix.

    A graph with isolated vertices is not connected; the empty graph on
    one vertex is.
    """
    adjacency = check_square(np.asarray(adjacency, dtype=bool))
    return adjacency.shape[0] == 0 or bool(_component_of(adjacency, 0).all())


def connected_components(adjacency: np.ndarray) -> List[List[int]]:
    """Connected components as sorted vertex lists (sorted by min vertex)."""
    adjacency = check_square(np.asarray(adjacency, dtype=bool))
    visited = np.zeros(adjacency.shape[0], dtype=bool)
    components: List[List[int]] = []
    for start in range(adjacency.shape[0]):
        if not visited[start]:
            member = _component_of(adjacency, start)
            visited |= member
            components.append(np.flatnonzero(member).tolist())
    return components


def threshold_graph(bandwidth: np.ndarray, threshold: float) -> np.ndarray:
    """Algorithm 1's ``GetNewConnectedGraph``: ``B*_ij = 1`` iff
    ``B_ij >= threshold`` (diagonal excluded)."""
    bandwidth = check_square(np.asarray(bandwidth, dtype=np.float64))
    adjacency = bandwidth >= threshold
    np.fill_diagonal(adjacency, False)
    return adjacency
