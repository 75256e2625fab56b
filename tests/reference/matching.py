"""The parent's matchers, verbatim — the oracle the shipped ones must equal.

``repro.core.matching`` takes three shortcuts (filter-before-sort greedy
tiers, lazily built neighbour lists, failed roots remembered by
adjacency row) that are each claimed to be *exact*: same pairs, same
RNG draws.  These are the functions as they stood before the shortcuts
— one ``lexsort`` and one Python scan over every edge, neighbour lists
for all ``n`` rows, one augmenting search per free vertex — kept so the
claim is checked rather than argued.  Nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square

Matching = List[Tuple[int, int]]


def _adjacency_lists(adjacency: np.ndarray) -> List[List[int]]:
    adjacency = check_square(np.asarray(adjacency, dtype=bool), "adjacency")
    if np.any(np.diag(adjacency)):
        raise ValueError("adjacency must have an empty diagonal (no self-loops)")
    if not np.array_equal(adjacency, adjacency.T):
        raise ValueError("adjacency must be symmetric")
    return [np.flatnonzero(row).tolist() for row in adjacency]


class _BlossomState:
    """Working arrays for one augmenting-path search."""

    def __init__(self, n: int, match: List[int]) -> None:
        self.n = n
        self.match = match
        self.parent = [-1] * n  # alternating-tree parent edge
        self.base = list(range(n))  # blossom base of each vertex

    def lowest_common_ancestor(self, a: int, b: int) -> int:
        """LCA of ``a`` and ``b`` in the alternating tree, by base."""
        used = [False] * self.n
        v = a
        while True:
            v = self.base[v]
            used[v] = True
            if self.match[v] == -1:
                break
            v = self.parent[self.match[v]]
        v = b
        while True:
            v = self.base[v]
            if used[v]:
                return v
            v = self.parent[self.match[v]]

    def mark_blossom_path(
        self, v: int, blossom_base: int, child: int, in_blossom: List[bool]
    ) -> None:
        """Mark vertices on the path from ``v`` to the blossom base."""
        while self.base[v] != blossom_base:
            in_blossom[self.base[v]] = True
            in_blossom[self.base[self.match[v]]] = True
            self.parent[v] = child
            child = self.match[v]
            v = self.parent[self.match[v]]


def _find_augmenting_path(
    graph: List[List[int]], match: List[int], root: int
) -> int:
    """BFS for an augmenting path from unmatched ``root``.

    Returns the free vertex ending the path, or ``-1`` if none exists.
    Blossoms are contracted on the fly via the ``base`` array.
    """
    n = len(graph)
    state = _BlossomState(n, match)
    used = [False] * n
    used[root] = True
    queue = [root]

    while queue:
        v = queue.pop(0)
        for to in graph[v]:
            if state.base[v] == state.base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and state.parent[match[to]] != -1):
                # Odd cycle found: contract the blossom.
                current_base = state.lowest_common_ancestor(v, to)
                in_blossom = [False] * n
                state.mark_blossom_path(v, current_base, to, in_blossom)
                state.mark_blossom_path(to, current_base, v, in_blossom)
                for u in range(n):
                    if in_blossom[state.base[u]]:
                        state.base[u] = current_base
                        if not used[u]:
                            used[u] = True
                            queue.append(u)
            elif state.parent[to] == -1:
                state.parent[to] = v
                if match[to] == -1:
                    # Augment along the path ending at `to`.
                    u = to
                    while u != -1:
                        previous = state.parent[u]
                        next_vertex = match[previous]
                        match[u] = previous
                        match[previous] = u
                        u = next_vertex
                    return to
                used[match[to]] = True
                queue.append(match[to])
    return -1


def max_cardinality_matching(
    adjacency: np.ndarray, initial_match: Optional[Sequence[int]] = None
) -> Matching:
    """Maximum-cardinality matching via the blossom algorithm.

    Parameters
    ----------
    adjacency:
        Symmetric boolean adjacency matrix, empty diagonal.
    initial_match:
        Optional partial matching to extend, as a length-``n`` array where
        ``initial_match[v]`` is ``v``'s partner or ``-1``.

    Returns
    -------
    List of matched pairs ``(i, j)`` with ``i < j``, sorted.
    """
    graph = _adjacency_lists(adjacency)
    n = len(graph)
    if initial_match is not None:
        match = list(initial_match)
        if len(match) != n:
            raise ValueError("initial_match length must equal vertex count")
        for v, partner in enumerate(match):
            if partner != -1 and match[partner] != v:
                raise ValueError("initial_match is not a consistent matching")
    else:
        match = [-1] * n
        # Greedy warm start cuts the number of augmentation phases.
        for v in range(n):
            if match[v] == -1:
                for to in graph[v]:
                    if match[to] == -1:
                        match[v] = to
                        match[to] = v
                        break

    for v in range(n):
        if match[v] == -1:
            _find_augmenting_path(graph, match, v)

    return sorted(
        (v, match[v]) for v in range(n) if match[v] != -1 and v < match[v]
    )


def randomly_max_match(adjacency: np.ndarray, rng: SeedLike = None) -> Matching:
    """The paper's ``RandomlyMaxMatch``: blossom under a random vertex
    relabelling, so which maximum matching is returned varies uniformly
    with the RNG while cardinality stays maximal."""
    adjacency = check_square(np.asarray(adjacency, dtype=bool))
    rng = as_generator(rng)
    n = adjacency.shape[0]
    permutation = rng.permutation(n)
    shuffled = adjacency[np.ix_(permutation, permutation)]
    match = max_cardinality_matching(shuffled)
    restored = [
        (int(permutation[a]), int(permutation[b])) for a, b in match
    ]
    return sorted((min(a, b), max(a, b)) for a, b in restored)


def greedy_weighted_matching(
    weights: np.ndarray,
    rng: SeedLike = None,
    complete_with_blossom: bool = True,
) -> Matching:
    """Bandwidth-greedy matching (extension; not in the paper's Alg. 3).

    Edges with positive weight are taken heaviest-first (random tie
    breaks); optionally the result is extended to maximum cardinality via
    blossom augmentation restricted to positive-weight edges.
    """
    weights = check_square(np.asarray(weights, dtype=np.float64), "weights")
    rng = as_generator(rng)
    n = weights.shape[0]
    rows, cols = np.nonzero(np.triu(weights, k=1) > 0)
    if rows.size == 0:
        return []
    order = np.lexsort(
        (rng.random(rows.size), -weights[rows, cols])
    )  # heaviest first, random among equals
    matched = np.zeros(n, dtype=bool)
    match = [-1] * n
    for index in order:
        a, b = int(rows[index]), int(cols[index])
        if not matched[a] and not matched[b]:
            matched[a] = matched[b] = True
            match[a] = b
            match[b] = a
    if complete_with_blossom:
        adjacency = weights > 0
        np.fill_diagonal(adjacency, False)
        pairs = max_cardinality_matching(adjacency, initial_match=match)
    else:
        pairs = [(v, match[v]) for v in range(n) if match[v] > v]
    return sorted(pairs)
