"""Communication topologies and graph utilities.

Provides the ring and fully-connected topologies the baselines use
(D-PSGD/DCD-PSGD are evaluated on rings; PSGD/TopK-PSGD are effectively
fully connected), plus the connectivity predicates Algorithm 3 needs.

Graphs are represented as symmetric boolean adjacency matrices with a
zero diagonal.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square


def ring_adjacency(num_workers: int) -> np.ndarray:
    """Ring ``0-1-...-(n-1)-0``; for ``n == 2`` a single edge."""
    if num_workers < 2:
        raise ValueError(f"a ring needs at least 2 workers, got {num_workers}")
    adjacency = np.zeros((num_workers, num_workers), dtype=bool)
    for i in range(num_workers):
        j = (i + 1) % num_workers
        adjacency[i, j] = adjacency[j, i] = True
    return adjacency


def complete_adjacency(num_workers: int) -> np.ndarray:
    """Fully-connected graph."""
    if num_workers < 1:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    adjacency = np.ones((num_workers, num_workers), dtype=bool)
    np.fill_diagonal(adjacency, False)
    return adjacency


def random_regular_adjacency(
    num_workers: int, degree: int, rng: SeedLike = None, max_tries: int = 200
) -> np.ndarray:
    """Random ``degree``-regular graph via repeated pairing-model draws."""
    if degree >= num_workers:
        raise ValueError("degree must be < num_workers")
    if (num_workers * degree) % 2 != 0:
        raise ValueError("num_workers * degree must be even")
    rng = as_generator(rng)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(num_workers), degree)
        rng.shuffle(stubs)
        adjacency = np.zeros((num_workers, num_workers), dtype=bool)
        ok = True
        for a, b in stubs.reshape(-1, 2):
            if a == b or adjacency[a, b]:
                ok = False
                break
            adjacency[a, b] = adjacency[b, a] = True
        if ok:
            return adjacency
    raise RuntimeError(
        f"failed to sample a {degree}-regular graph in {max_tries} tries"
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


def edges_of(adjacency: np.ndarray) -> List[tuple]:
    """Upper-triangle edge list of a symmetric adjacency matrix."""
    adjacency = check_square(np.asarray(adjacency, dtype=bool))
    rows, cols = np.nonzero(np.triu(adjacency, k=1))
    return list(zip(rows.tolist(), cols.tolist()))


def adjacency_from_edges(num_workers: int, edges) -> np.ndarray:
    """Build a symmetric adjacency matrix from an edge list."""
    adjacency = np.zeros((num_workers, num_workers), dtype=bool)
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop ({a}, {b}) not allowed")
        if not (0 <= a < num_workers and 0 <= b < num_workers):
            raise ValueError(f"edge ({a}, {b}) out of range")
        adjacency[a, b] = adjacency[b, a] = True
    return adjacency


def threshold_graph(bandwidth: np.ndarray, threshold: float) -> np.ndarray:
    """Algorithm 1's ``GetNewConnectedGraph``: ``B*_ij = 1`` iff
    ``B_ij >= threshold`` (diagonal excluded)."""
    bandwidth = check_square(np.asarray(bandwidth, dtype=np.float64))
    adjacency = bandwidth >= threshold
    np.fill_diagonal(adjacency, False)
    return adjacency
