"""Graph builders the matching and connectivity tests draw inputs from:
symmetric boolean adjacency matrices with a zero diagonal."""

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
