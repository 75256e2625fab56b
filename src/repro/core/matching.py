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
  :func:`greedy_matching_on_sorted`, takes its first tier presorted.
* :func:`multipartite_max_matching` / :func:`randomly_max_match_multipartite`
  — the blossom's own result on a complete multipartite graph
  (Algorithm 3's fallback and second-pass graphs), in closed form.

Graphs are symmetric boolean adjacency matrices; matchings are lists of
``(i, j)`` pairs with ``i < j``.  Every shortcut is exact — same pairs,
same RNG draws as the plain algorithms in ``tests/reference/matching.py``:

* *Greedy tiers.*  The order (−weight, random tie key, edge index) is
  strict, so the greedy matching is unique however little of the order
  is materialised: scan the heaviest ≈ 8n candidates (cut on a weight
  value), keep what joins two unmatched vertices, repeat.
* *Rows are bit sets, packed on first visit*: one ``&`` skips a search's
  odd vertices and its own blossom, and a contraction relabels only its
  cycle.
* *Failed roots are remembered by row*: a free vertex whose row matches
  a failed root's fails too, and nothing is searched with fewer than two
  free vertices.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square

Matching = List[Tuple[int, int]]


class _NeighborSets(dict):
    """``graph[v]``: ``v``'s neighbours as an integer (bit ``u`` set iff
    ``u`` is adjacent), read off the adjacency packed 8 columns to a byte
    on first visit."""

    def __init__(self, adjacency: np.ndarray) -> None:
        super().__init__()
        adjacency = check_square(np.asarray(adjacency, dtype=bool), "adjacency")
        if np.any(np.diag(adjacency)):
            raise ValueError("adjacency must have an empty diagonal (no self-loops)")
        n = adjacency.shape[0]
        self.rows = np.packbits(adjacency, axis=1, bitorder="little")
        # Symmetric iff the rows packed this way equal the columns packed
        # 8 rows to a byte: a transpose of bytes, 8x cheaper than of bools.
        padded = np.zeros((-(-n // 8) * 8, n), dtype=np.uint8)
        padded[:n] = adjacency
        bits = (1 << np.arange(8, dtype=np.uint8))[:, None]
        columns = np.bitwise_or.reduce(padded.reshape(-(-n // 8), 8, n) * bits, axis=1)
        if not np.array_equal(self.rows, columns.T):
            raise ValueError("adjacency must be symmetric")

    def __missing__(self, vertex: int) -> int:
        self[vertex] = row = int.from_bytes(self.rows[vertex].tobytes(), "little")
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
    n = len(graph.rows)
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
    n, flat = len(weights), weights.ravel()
    ranked = np.flatnonzero(np.triu(support, k=1))
    match = greedy_matching_on_sorted(
        n, heaviest_links(ranked, flat, 8 * n), flat, ranked, rng=rng
    )
    return max_cardinality_matching(support, initial_match=match)


def heaviest_links(links: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """The ``links`` (flat indices into ``weights``) heavier than the
    ``count``-th heaviest, heaviest first — all of them if there are no
    more: a first greedy tier, closed on a weight value so that no tie
    straddles it.  Found a block at a time, in ``count``-sized memory."""
    pool = links[:0]
    for at in range(0, links.size, 2**16):
        pool = np.concatenate([pool, links[at:at + 2**16]])
        if pool.size > count:
            pool = pool[np.argpartition(-weights[pool], count - 1)[:count]]
    if links.size > count:
        pool = pool[weights[pool] > weights[pool].min()]
    return pool[np.argsort(-weights[pool])]


def greedy_matching_on_sorted(
    num_vertices: int,
    heaviest: np.ndarray,
    weights: np.ndarray,
    ranked: np.ndarray,
    accept: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    rng: SeedLike = None,
) -> List[int]:
    """:func:`greedy_weighted_matching`'s partner list (``-1``: unmatched)
    and draws, unchecked.  Edges are flat indices ``i * n + j`` (``i < j``)
    weighing ``weights[e] > 0``: ``ranked`` holds the candidates ascending
    (the order the tie keys are drawn in), ``heaviest`` the first tier
    (:func:`heaviest_links`), among which ``accept`` tells the candidates.
    The tie keys, ``rng.random(ranked.size)``, are drawn only if a scanned
    tier holds a weight tie, else skipped (:func:`_skip_doubles`)."""
    rng = as_generator(rng)
    n, tier, keys = num_vertices, 8 * num_vertices, None
    match, free, rest = [-1] * n, n, ranked
    head = np.sort(heaviest[accept(heaviest)] if accept is not None else heaviest)
    while True:
        # A tier, taken in edge order, is scanned in (−weight, tie key, edge
        # index) order: complex numbers sort by real part, then imaginary
        # part, and a stable sort keeps edge order among equal pairs.  Its
        # keys are looked up in ascending order, which misses the cache less.
        heavy = -weights[head]
        order = np.argsort(heavy, kind="stable")
        if (heavy[order[1:]] == heavy[order[:-1]]).any():
            keys = rng.random(ranked.size) if keys is None else keys
            order = np.argsort(heavy + 1j * keys[np.searchsorted(ranked, head)], kind="stable")
        rows, cols = np.divmod(head[order], n)
        for a, b in zip(rows.tolist(), cols.tolist()):
            if match[a] == -1 and match[b] == -1:
                match[a], match[b] = b, a
                free -= 2
        if free < 2:
            break
        # Every edge scanned lost an endpoint.  The next tier is the
        # heaviest of the candidates joining two unmatched vertices.
        unmatched = np.array(match) == -1
        rest = rest[(unmatched[:, None] & unmatched).ravel()[rest]]
        if not rest.size:
            break
        heavy = weights[rest]
        cut = np.partition(heavy, -tier)[-tier] if rest.size > tier else -np.inf
        head = rest[heavy >= cut]
    if keys is None:
        _skip_doubles(rng, ranked.size)
    return match


def _skip_doubles(rng: np.random.Generator, count: int) -> None:
    """Move ``rng`` as ``rng.random(count)`` would: a PCG64 by jump-ahead,
    keeping the buffered 32-bit half that ``advance`` clears; others by the draw."""
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        rng.random(count)
        return
    state, moved = bits.state, bits.advance(count).state
    moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
    bits.state = moved


def multipartite_max_matching(
    parts: np.ndarray,
    active: np.ndarray,
    initial_match: Optional[Sequence[int]] = None,
) -> Matching:
    """:func:`max_cardinality_matching`'s pairs on the complete
    multipartite graph over the ``active`` vertices (``parts[v]`` names
    ``v``'s part), in O(n) and with no graph.  Roots are taken in
    ascending order.  A root with a free active vertex outside its part
    takes the lowest one (the warm start, with no ``initial_match``).
    Otherwise every free vertex lies in the root's part ``P``: the root
    takes ``u``, the lowest vertex outside ``P`` whose partner ``v`` is
    outside ``P`` too, and ``v`` the lowest free vertex above the root;
    with no such ``u``, no root of ``P`` is searched again."""
    n = len(parts)
    parts = np.asarray(parts).tolist()
    match = [-1] * n if initial_match is None else list(initial_match)
    # ``after[v]`` leads to the lowest free active vertex at or above v.
    after = [v if active[v] and match[v] == -1 else v + 1 for v in range(n)] + [n]

    def lowest_free(v: int) -> int:
        while after[v] != v:
            after[v] = v = after[after[v]]
        return v

    def pair(a: int, b: int) -> None:
        match[a], match[b] = b, a
        after[a], after[b] = a + 1, b + 1

    resume = {}  # per part: where its search outside itself resumes
    root = lowest_free(0)
    while root < n:
        part = parts[root]
        u = lowest_free(max(resume.get(part, 0), root + 1))
        while u < n and parts[u] == part:
            u = lowest_free(u + 1)
        if u == n:
            break
        resume[part] = u
        pair(root, u)
        root = lowest_free(root + 1)
    for u in range(n) if root < n else ():
        v = match[u]
        if v > u and parts[u] != part and parts[v] != part:
            mate = lowest_free(root + 1)
            if mate == n:
                break
            pair(root, u)
            pair(v, mate)
            root = lowest_free(root + 1)
            if root == n:
                break
    return [(v, match[v]) for v in range(n) if match[v] > v]


def randomly_max_match_multipartite(
    parts: np.ndarray, active: np.ndarray, rng: SeedLike = None
) -> Matching:
    """:func:`randomly_max_match` on the complete multipartite graph over
    the ``active`` vertices: the same permutation draw and pairs.  With
    every vertex its own part the graph is complete, and the free
    vertices pair consecutively in permuted order."""
    permutation = as_generator(rng).permutation(len(parts))
    match = multipartite_max_matching(
        np.asarray(parts)[permutation], np.asarray(active, dtype=bool)[permutation]
    )
    return sorted(
        tuple(sorted((int(permutation[a]), int(permutation[b])))) for a, b in match
    )


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
