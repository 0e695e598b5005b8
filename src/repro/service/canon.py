"""Canonical forms for query graphs (result-cache keys).

Detecting an isomorphic repeat with an invariant key plus an exact
isomorphism check per bucket entry costs O(hit candidates) exact checks
per lookup.  A serving layer wants O(1) lookups: this module computes a
**canonical form**, a node ordering that is identical for every
isomorphic instance of a query, so the cache can key on a plain tuple
and a dict lookup replaces the exact checker.

The algorithm is classic individualisation–refinement over *label
codes* (vertex labels interned to dense ints, ordered by ``repr`` so
the code assignment itself is isomorphism-invariant):

1. colour every vertex by its label code;
2. refine colours by sorted multisets of neighbour colours until the
   partition stabilises (1-WL);
3. if the partition is discrete, the colour order *is* the canonical
   order; otherwise branch on every vertex of the first smallest
   non-singleton cell (an isomorphism-invariant choice) and take the
   lexicographically smallest leaf encoding.

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


def _stable_colors(
    initial: tuple[int, ...], adjacency: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """Refine ``initial`` colours to a stable partition (1-WL).

    New colours are dense ints assigned by sorted signature, so colour
    *values* are themselves isomorphism-invariant.
    """
    colors = initial
    num_colors = len(set(colors))
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in adjacency[v])))
            for v in range(len(colors))
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = tuple(palette[sig] for sig in signatures)
        refined_count = len(palette)
        if refined_count == num_colors:
            return refined
        colors = refined
        num_colors = refined_count


def _encode(
    order: list[int],
    labels: tuple[int, ...],
    adjacency: tuple[tuple[int, ...], ...],
    edge_label_of,
) -> tuple:
    """Encoding of the graph under a vertex ordering."""
    pos = {v: i for i, v in enumerate(order)}
    edges = sorted(
        (
            min(pos[u], pos[v]),
            max(pos[u], pos[v]),
            repr(edge_label_of(u, v)),
        )
        for u in order
        for v in adjacency[u]
        if u < v
    )
    return (tuple(labels[v] for v in order), tuple(edges))


def canonical_query_key(
    graph: LabeledGraph,
    max_branches: int = DEFAULT_CANON_BRANCHES,
) -> Optional[tuple]:
    """A hashable key equal for exactly the isomorphic copies of ``graph``.

    Returns ``None`` when the branch budget is exceeded (the caller
    should skip caching).  Vertex *and* edge labels participate: two
    graphs with the same shape but different labelling get different
    keys.

    Memoized per graph instance (the graph-side memo resets on
    mutation): the serving path needs the key at submit time for the
    result cache *and* in the census memo, and must canonicalise once,
    not twice.
    """
    from ..caching import prepare_cache  # deferred: no import cycle at use

    # wrapped in a 1-tuple so a legitimate None result is memoized too
    return prepare_cache.get(
        graph,
        ("canon", max_branches),
        lambda: (_canonical_query_key(graph, max_branches),),
    )[0]


def _canonical_query_key(
    graph: LabeledGraph,
    max_branches: int,
) -> Optional[tuple]:
    n = graph.order
    if n == 0:
        return ("canon", 0, (), (), ())
    # label codes ordered by repr: invariant across instances
    alphabet = tuple(sorted({repr(lab) for lab in graph.labels}))
    code_of = {rep: i for i, rep in enumerate(alphabet)}
    labels = tuple(code_of[repr(lab)] for lab in graph.labels)
    adjacency = graph.adjacency()
    budget = [max_branches]
    best: list[Optional[tuple]] = [None]

    def search(colors: tuple[int, ...]) -> None:
        colors = _stable_colors(colors, adjacency)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        non_singleton = [
            (len(vs), c) for c, vs in cells.items() if len(vs) > 1
        ]
        if not non_singleton:
            budget[0] -= 1
            if budget[0] < 0:
                raise CanonBudgetExceeded
            order = sorted(range(n), key=lambda v: colors[v])
            enc = _encode(order, labels, adjacency, graph.edge_label)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        # invariant target cell: smallest, ties by colour value
        _, target = min(non_singleton)
        fresh = len(cells)  # a colour value no vertex currently has
        for v in cells[target]:
            individualized = tuple(
                fresh if u == v else c for u, c in enumerate(colors)
            )
            search(individualized)

    try:
        search(labels)
    except CanonBudgetExceeded:
        return None
    assert best[0] is not None
    return ("canon", n, graph.size, alphabet) + best[0]
