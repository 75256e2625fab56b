"""Maximum matching in general graphs — Edmonds' blossom algorithm.

The paper (Section II-C) "exploit[s] the blossom algorithm [33] to solve
the problem of maximum match in a general graph" and implements
``RandomlyMaxMatch`` "by randomly starting from different node in a
graph".  This module provides both, from scratch:

* :func:`max_cardinality_matching` — O(V³) blossom algorithm with
  augmenting paths and blossom contraction.
* :func:`randomly_max_match` — the paper's randomized variant: relabel
  vertices with a random permutation before matching, so ties between
  equally-sized matchings are broken uniformly.
* :func:`greedy_weighted_matching` — an extension beyond the paper:
  prefer heavier (higher-bandwidth) edges greedily, then complete to a
  maximum matching with blossom augmentation.  Its core,
  :func:`greedy_matching_on_graph`, runs on a graph's edge list with the
  weights read from a matrix, for a caller that validated both once.

Graphs are symmetric boolean adjacency matrices; matchings are lists of
``(i, j)`` pairs with ``i < j``.

Shortcuts keep a call's cost near the cost of its output.  Each is exact
— same pairs, same RNG draws as the plain algorithms, which
``tests/reference/matching.py`` keeps as the oracle:

* *Filter before sort.*  The strict order (−weight, random tie key, edge
  index) makes the greedy matching unique, however much of the order is
  materialised: take the heaviest ≈ 8n edges (cut on a weight *value*, so
  ties never straddle a tier), sort and scan those, drop every edge that
  lost an endpoint, repeat.
* *Rows are bit sets, packed on first visit.*  A search scans a row in
  ascending order and skips odd vertices and its own blossom; one ``&``
  does the skipping, the lowest set bit is the next neighbour, and a
  contraction relabels its cycle's members, not all ``n``.
* *Failed roots are remembered by row.*  An augmenting path has two free
  ends, so nothing is searched with fewer than two free vertices; and if
  the search from free ``r`` fails, a free vertex with the same row fails
  too — its path, re-rooted at ``r``, would be one from ``r`` — now and
  after any later augmentation, which never creates a path from a vertex
  that had none.  The free vertices of one part of a complete
  multipartite graph (Algorithm 3's fallback graph) share a row: a
  surplus part costs one search, not one per vertex.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square

Matching = List[Tuple[int, int]]


class _NeighborSets(dict):
    """``graph[v]``: ``v``'s neighbours as an integer (bit ``u`` set iff
    ``u`` is adjacent), packed from the adjacency row on first visit."""

    def __init__(self, adjacency: np.ndarray) -> None:
        super().__init__()
        adjacency = check_square(np.asarray(adjacency, dtype=bool), "adjacency")
        if np.any(np.diag(adjacency)):
            raise ValueError("adjacency must have an empty diagonal (no self-loops)")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be symmetric")
        self.adjacency = adjacency

    def __missing__(self, vertex: int) -> int:
        packed = np.packbits(self.adjacency[vertex], bitorder="little")
        self[vertex] = row = int.from_bytes(packed.tobytes(), "little")
        return row


def _find_augmenting_path(
    graph: _NeighborSets, match: List[int], root: int
) -> int:
    """BFS for an augmenting path from unmatched ``root``.

    Returns the free vertex ending the path, or ``-1`` if none exists.
    Blossoms are contracted on the fly via the ``base`` array.
    """
    n = len(match)
    parent = [-1] * n  # alternating-tree parent edge
    base = list(range(n))  # blossom base of each vertex
    members = {}  # base -> the vertices contracted into it, as a list
    inside = {}  # ... and as a bit set (a lone vertex has no entry)
    used = [False] * n
    used[root] = True
    queue = [root]
    # Every vertex except the odd ones no blossom has absorbed yet: an
    # even vertex acts on those neighbours only, minus its own blossom.
    plain = (1 << n) - 1

    def lowest_common_ancestor(a, b) -> int:
        """LCA of ``a`` and ``b`` in the alternating tree, by base."""
        seen = set()
        v = a
        while True:
            v = base[v]
            seen.add(v)
            if match[v] == -1:
                break
            v = parent[match[v]]
        v = b
        while True:
            v = base[v]
            if v in seen:
                return v
            v = parent[match[v]]

    def mark_blossom_path(v, blossom_base, child, in_blossom) -> None:
        """Mark the bases on the path from ``v`` to the blossom base."""
        while base[v] != blossom_base:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.pop(0)
        # Nothing joins `todo` while v is scanned: an odd neighbour that
        # turns even meanwhile has been contracted into v's own blossom.
        todo = graph[v] & plain & ~inside.get(base[v], 0)
        while todo:
            lowest = todo & -todo
            todo ^= lowest
            to = lowest.bit_length() - 1
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Odd cycle found: contract the blossom.  Costs the cycle,
                # not n: a vertex whose base is on the cycle is that base
                # or one of its `members`, and only bases (odd until now)
                # can be new to the queue.
                current_base = lowest_common_ancestor(v, to)
                in_blossom = set()
                mark_blossom_path(v, current_base, to, in_blossom)
                mark_blossom_path(to, current_base, v, in_blossom)
                in_blossom.discard(current_base)
                moved = members.setdefault(current_base, [current_base])
                absorbed = inside.get(current_base, 1 << current_base)
                for old_base in in_blossom:
                    group = members.pop(old_base, (old_base,))
                    for u in group:
                        base[u] = current_base
                    moved.extend(group)
                    absorbed |= inside.pop(old_base, 1 << old_base)
                inside[current_base] = absorbed
                todo &= ~absorbed
                for u in sorted(in_blossom):
                    if not used[u]:
                        used[u] = True
                        plain |= 1 << u
                        queue.append(u)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # Augment along the path ending at `to`.
                    u = to
                    while u != -1:
                        previous = parent[u]
                        next_vertex = match[previous]
                        match[u] = previous
                        match[previous] = u
                        u = next_vertex
                    return to
                plain &= ~lowest
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
    graph = _NeighborSets(adjacency)
    n = graph.adjacency.shape[0]
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
        unmatched = (1 << n) - 1
        for v in range(n):
            candidates = graph[v] & unmatched if match[v] == -1 else 0
            if candidates:
                to = (candidates & -candidates).bit_length() - 1  # the lowest
                match[v] = to
                match[to] = v
                unmatched &= ~(1 << v | 1 << to)

    free = match.count(-1)
    failed = set()  # neighbourhoods of the roots whose search found nothing
    searches = skipped = 0
    with obs.phase("complete"):
        for v in range(n):
            if free < 2:
                break
            if match[v] != -1:
                continue
            if graph[v] in failed:
                skipped += 1
                continue
            searches += 1
            if _find_augmenting_path(graph, match, v) == -1:
                failed.add(graph[v])
            else:
                free -= 2
    obs.inc("matching.augment_searches", searches)
    obs.inc("matching.searches_skipped", skipped)

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
) -> Matching:
    """Bandwidth-greedy matching (extension; not in the paper's Alg. 3).

    Edges with positive weight are taken heaviest-first (random tie
    breaks); the result is then extended to maximum cardinality via
    blossom augmentation restricted to positive-weight edges.  Weights
    must be finite, non-negative and symmetric in support
    (``ValueError`` otherwise); the upper triangle's values are used.
    """
    weights = check_square(np.asarray(weights, dtype=np.float64), "weights")
    # Refuse what would otherwise read as a non-edge (NaN, negative), sort
    # first forever (infinite) or surface only if the completion happens
    # to run (a support that is not symmetric).
    support = weights > 0
    bad = support != support.T
    if weights.size and not (weights.min() >= 0 and weights.max() < np.inf):
        bad = ~np.isfinite(weights) | (weights < 0)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise ValueError(
            "weights must be finite, non-negative and positive at [j, i] "
            f"wherever they are at [i, j]: weights[{i}, {j}] = {float(weights[i, j])!r}"
        )
    np.fill_diagonal(support, False)
    return greedy_matching_on_graph(support, weights, rng)


def greedy_matching_on_graph(
    adjacency: np.ndarray,
    weights: np.ndarray,
    rng: SeedLike = None,
) -> Matching:
    """The greedy core: :func:`greedy_weighted_matching` over the edges of
    ``adjacency`` (symmetric, empty diagonal), edge ``(i, j)`` weighing
    ``weights[i, j]`` (finite, non-negative; an edge of weight 0 is no
    edge).  Neither input is checked, so a caller that validated them
    once may pass a graph and a matrix it keeps, and no dense product of
    the two is built; the matching and the draws are those of
    ``weights * adjacency`` through :func:`greedy_weighted_matching`.
    """
    rng = as_generator(rng)
    n = adjacency.shape[0]
    # Row-major upper-triangle edge list: the tie keys are aligned to it.
    flat = np.flatnonzero(np.triu(adjacency, k=1))
    heavy = weights.ravel()[flat]
    if not heavy.all():
        positive = heavy > 0
        flat, heavy = flat[positive], heavy[positive]
        adjacency = adjacency & (weights > 0)
    if flat.size == 0:
        return []
    # int32 endpoints: the per-edge arrays the tiers carry are the round's
    # largest allocation (E ≈ n²/2 on a fallback round's complete graph).
    rows = np.empty(flat.size, dtype=np.int32)
    cols = np.empty_like(rows)
    np.divmod(flat, n, out=(rows, cols))
    del flat
    keys = rng.random(rows.size)
    match = [-1] * n
    free = n
    tier = 8 * n
    while rows.size and free >= 2:
        # Masks keep edge order, so lexsort's stability is still the
        # edge-index tie break of the full sort.
        cut = np.partition(heavy, -tier)[-tier] if rows.size > tier else 0.0
        head = np.flatnonzero(heavy >= cut)
        order = head[np.lexsort((keys[head], -heavy[head]))]
        for a, b in zip(rows[order].tolist(), cols[order].tolist()):
            if match[a] == -1 and match[b] == -1:
                match[a] = b
                match[b] = a
                free -= 2
        unmatched = np.array(match) == -1
        keep = (heavy < cut) & unmatched[rows] & unmatched[cols]
        rows, cols, heavy, keys = rows[keep], cols[keep], heavy[keep], keys[keep]
    if free >= 2:
        return max_cardinality_matching(adjacency, initial_match=match)
    return [(v, match[v]) for v in range(n) if match[v] > v]


def is_valid_matching(matching: Matching, num_vertices: int) -> bool:
    """Check that no vertex appears twice and all indices are in range."""
    seen = set()
    for a, b in matching:
        if a == b:
            return False
        if not (0 <= a < num_vertices and 0 <= b < num_vertices):
            return False
        if a in seen or b in seen:
            return False
        seen.add(a)
        seen.add(b)
    return True


def matching_to_partner_array(matching: Matching, num_vertices: int) -> np.ndarray:
    """Length-``n`` array: ``partner[v]`` is ``v``'s peer or ``-1``.

    This is the ``W_t[rank]`` lookup a worker performs (Algorithm 2,
    line 8).
    """
    if not is_valid_matching(matching, num_vertices):
        raise ValueError("invalid matching")
    partners = np.full(num_vertices, -1, dtype=np.int64)
    if matching:
        pairs = np.asarray(matching, dtype=np.int64)
        partners[pairs[:, 0]] = pairs[:, 1]
        partners[pairs[:, 1]] = pairs[:, 0]
    return partners
