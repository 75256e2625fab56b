"""Graph builders the matching and connectivity tests draw inputs from
(symmetric boolean adjacency matrices with a zero diagonal), the dense
connectivity predicates and threshold graph the selector oracle
(``tests/reference/selector.py``) runs on, and the doubly-stochastic
check the gossip-matrix tests apply to their outputs."""

from typing import List

import numpy as np

from repro.utils.validation import check_square


def adjacency_from_edges(num_vertices, edges):
    adjacency = np.zeros((num_vertices, num_vertices), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    return adjacency


def ring_adjacency(num_vertices):
    """``0-1-...-(n-1)-0``."""
    return adjacency_from_edges(
        num_vertices, [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    )


def complete_adjacency(num_vertices):
    return ~np.eye(num_vertices, dtype=bool)


def is_doubly_stochastic(matrix, atol=1e-9):
    """Rows and columns sum to 1, entries non-negative."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if np.any(matrix < -atol):
        return False
    ones = np.ones(matrix.shape[0])
    return bool(
        np.allclose(matrix @ ones, ones, atol=atol)
        and np.allclose(matrix.T @ ones, ones, atol=atol)
    )


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
