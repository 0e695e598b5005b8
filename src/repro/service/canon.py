"""Canonical forms for query graphs (result-cache keys).

Detecting an isomorphic repeat with an invariant key plus an exact
isomorphism check per bucket entry costs O(hit candidates) exact checks
per lookup.  A serving layer wants O(1) lookups: this module computes a
**canonical form**, a node ordering that is identical for every
isomorphic instance of a query, so the cache can key on a plain tuple
and a dict lookup replaces the exact checker.

The algorithm is classic individualisation–refinement over *label
codes*: the query's distinct vertex labels, and separately its distinct
edge labels, are numbered densely in ``repr`` order — a function of the
label values alone, so the code assignment is isomorphism-invariant and
never depends on vertex order.  ``int`` and ``str`` labels are told
apart by value (one ``repr`` per distinct label); labels of any other
type by their ``repr``, as equal values of two types can print apart.

1. colour every vertex by its label code;
2. refine colours by sorted multisets of neighbour colours until the
   partition stabilises (1-WL);
3. if the partition is discrete, the colour order *is* the canonical
   order; otherwise branch on every vertex of the first smallest
   non-singleton cell (an isomorphism-invariant choice) and take the
   lexicographically smallest leaf encoding.  A vertex whose twin in
   the cell (same neighbours through same-labelled edges, but each
   other) was already branched on
   is the twin's image under the swap automorphism: its subtree has the
   same leaves, so they are counted against the budget, not searched,
   and the budget runs out exactly where a full search would.  A
   leaf's colours are the positions 0..n-1 themselves, so it encodes
   as the label code at each position and one int per edge, spelled
   from its sorted position pair and its edge-label code.

Queries in this project are small (tens of vertices) and labelled, so
refinement is almost always discrete after a round or two.  A branch
budget guards the pathological regular-unlabelled case: when exceeded,
:func:`canonical_query_key` returns ``None`` and the caller simply
treats the query as uncacheable (soundness is never at risk — a key is
only produced when canonicalisation completed).
"""

from __future__ import annotations

from typing import Optional

from ..graphs import LabeledGraph

__all__ = ["canonical_query_key", "CanonBudgetExceeded"]

#: Branch-leaf budget for the individualisation search.
DEFAULT_CANON_BRANCHES = 4096


class CanonBudgetExceeded(Exception):
    """Raised internally when the branch budget runs out."""


def _label_codes(values) -> tuple[list[int], tuple[str, ...]]:
    """Dense codes for ``values`` in ``repr`` order of the distinct
    ones: the code of each value, and the distinct ``repr``s in code
    order (what names the codes in a key).  Equal ``int`` or ``str``
    values always print alike, so those are numbered by value."""
    if set(map(type, values)) <= {int, str}:
        named = sorted([(repr(v), v) for v in set(values)])
        code_of = {v: code for code, (_, v) in enumerate(named)}
        return [code_of[v] for v in values], tuple(r for r, _ in named)
    reprs = [repr(v) for v in values]
    names = sorted(set(reprs))
    code_of = {r: code for code, r in enumerate(names)}
    return [code_of[r] for r in reprs], tuple(names)


def _stable_colors(
    initial: tuple[int, ...], adjacency: list[list[int]]
) -> tuple[tuple[int, ...], int]:
    """Refine ``initial`` colours to a stable partition (1-WL); the
    colours and how many there are.

    New colours are dense ints assigned by sorted signature, so colour
    *values* are themselves isomorphism-invariant.
    """
    n = len(initial)
    colors = initial
    num_colors = len(set(colors))
    if num_colors == n:
        # colourings come in dense (label codes, or a stable colouring
        # with one fresh colour), so a discrete one is already ranked
        return colors, n
    while True:
        color_of = colors.__getitem__
        signatures = [
            (c, tuple(sorted(map(color_of, nbrs))))
            for c, nbrs in zip(colors, adjacency)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = tuple(map(palette.__getitem__, signatures))
        # a discrete partition is stable: another pass would rank the
        # distinct colours 0..n-1 onto themselves
        if len(palette) == num_colors or len(palette) == n:
            return refined, len(palette)
        colors = refined
        num_colors = len(palette)


def _but(neighbors: dict, vertex: int) -> dict:
    """``neighbors`` without ``vertex``."""
    if vertex not in neighbors:
        return neighbors
    rest = dict(neighbors)
    del rest[vertex]
    return rest


def _leaf(
    colors: tuple[int, ...],
    labels: list[int],
    adjacency: list[list[int]],
    coded: Optional[list[dict[int, int]]],
    kinds: int,
) -> tuple:
    """A discrete partition's encoding.  Its colours are the positions
    0..n-1: the label code at each position, and per edge the int its
    sorted position pair (and, with ``coded`` edge labels, its code)
    spell."""
    n = len(colors)
    at = [0] * n
    for c, code in zip(colors, labels):
        at[c] = code
    if coded is None:
        pairs = [
            a * n + colors[v]
            for a, nbrs in zip(colors, adjacency)
            for v in nbrs if colors[v] > a
        ]
    else:
        pairs = [
            (a * n + colors[v]) * kinds + codes[v]
            for a, nbrs, codes in zip(colors, adjacency, coded)
            for v in nbrs if colors[v] > a
        ]
    pairs.sort()
    return (tuple(at), tuple(pairs))


def canonical_query_key(
    graph: LabeledGraph,
    max_branches: int = DEFAULT_CANON_BRANCHES,
) -> Optional[tuple]:
    """A hashable key equal for exactly the isomorphic copies of ``graph``.

    Returns ``None`` when the branch budget is exceeded (the caller
    should skip caching).  Vertex *and* edge labels participate: two
    graphs with the same shape but different labelling get different
    keys.

    Not memoized: the serving path asks once per submit
    (``ResultCache.key_for``), and each submit carries a graph object
    of its own — a repeat is a fresh instance, a socket request a
    freshly decoded graph — so a per-graph memo would never hit.
    """
    n = graph.order
    if n == 0:
        return ("canon", 0, (), (), ())
    labels, names = _label_codes(graph.labels)
    adjacency = graph.neighbor_lists()
    #: per vertex, neighbour -> edge-label code (None: no edge labels)
    coded: Optional[list[dict[int, int]]] = None
    if graph.has_edge_labels:
        edges = [
            (u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v
        ]
        edge_codes, edge_names = _label_codes(
            [graph.edge_label(u, v) for u, v in edges]
        )
        coded = [{} for _ in range(n)]
        for (u, v), code in zip(edges, edge_codes):
            coded[u][v] = coded[v][u] = code
    else:
        edge_names = (repr(None),) if graph.size else ()
    kinds = len(edge_names) or 1
    head = ("canon", n, graph.size, names, edge_names)
    colors, count = _stable_colors(tuple(labels), adjacency)
    if count == n:  # the common case: refinement alone is discrete
        if max_branches < 1:
            return None
        return head + _leaf(colors, labels, adjacency, coded, kinds)
    budget = [max_branches]
    best: list[Optional[tuple]] = [None]
    #: per vertex, neighbour -> edge-label code, for the twin test
    neighbors = coded or [dict.fromkeys(nbrs, 0) for nbrs in adjacency]

    def search(colors: tuple[int, ...], count: int) -> int:
        """Search below the stable ``colors`` (``count`` of them); the
        number of leaves it has."""
        if count == n:
            budget[0] -= 1
            if budget[0] < 0:
                raise CanonBudgetExceeded
            enc = _leaf(colors, labels, adjacency, coded, kinds)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return 1
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        # invariant target cell: smallest, ties by colour value
        _, target = min(
            (len(vs), c) for c, vs in cells.items() if len(vs) > 1
        )
        fresh = len(cells)  # a colour value no vertex currently has
        total = 0
        searched: list[tuple[int, int]] = []  # (vertex, its leaves)
        for v in cells[target]:
            # a twin of a vertex already searched (same colour, same
            # neighbours through same-labelled edges but each other) is
            # its image under the swap automorphism: its subtree has as
            # many leaves and the same encodings, so it is counted, not
            # searched
            nv = neighbors[v]
            for u, leaves in searched:
                if _but(neighbors[u], v) == _but(nv, u):
                    budget[0] -= leaves
                    if budget[0] < 0:
                        raise CanonBudgetExceeded
                    break
            else:
                individualized = list(colors)
                individualized[v] = fresh
                leaves = search(
                    *_stable_colors(tuple(individualized), adjacency)
                )
                searched.append((v, leaves))
            total += leaves
        return total

    try:
        search(colors, count)
    except CanonBudgetExceeded:
        return None
    assert best[0] is not None
    return head + best[0]
