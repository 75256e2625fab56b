"""Graph builders the matching and connectivity tests draw inputs from
(symmetric boolean adjacency matrices with a zero diagonal), and the
doubly-stochastic check the gossip-matrix tests apply to their outputs."""

import numpy as np


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
