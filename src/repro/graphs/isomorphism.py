"""Exact graph isomorphism for labeled graphs.

The test suite's reference: it verifies that every query rewriting
produces a graph *exactly* isomorphic to the original (Definition 2 of
the paper), not merely one sharing cheap invariants, and that
:func:`repro.service.canon.canonical_query_key` agrees with it on which
queries are the same.

The checker is a VF2-flavoured backtracking over vertex bijections
with label/degree partitioning — exponential in the worst case, but
queries in this project are small (tens of vertices) and heavily
labeled, where it is effectively instant.
"""

from __future__ import annotations

from .core import LabeledGraph

__all__ = ["are_isomorphic"]


def are_isomorphic(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Whether ``g`` and ``h`` are isomorphic (vertex labels included).

    Edge labels are ignored, as in the paper's datasets (all
    vertex-labeled).  Correctness note: a vertex bijection preserving
    vertex labels that maps every ``g`` edge onto an ``h`` edge is a
    full isomorphism whenever ``g.size == h.size`` (the induced edge
    map is then injective between equal-size sets, hence bijective).
    """
    if g.order != h.order or g.size != h.size:
        return False
    n = g.order

    # partition h's vertices by (label, degree) for candidate lookup
    h_by_sig: dict[tuple, list[int]] = {}
    for v in h.vertices():
        h_by_sig.setdefault((repr(h.label(v)), h.degree(v)), []).append(v)
    g_sigs = [(repr(g.label(v)), g.degree(v)) for v in g.vertices()]
    for sig in g_sigs:
        if sig not in h_by_sig:
            return False

    # match g's vertices in order of rarest signature first
    order = sorted(
        g.vertices(), key=lambda v: (len(h_by_sig[g_sigs[v]]), v)
    )
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        u = order[pos]
        mapped_nbrs = [
            (w, mapping[w]) for w in g.neighbors(u) if w in mapping
        ]
        for c in h_by_sig[g_sigs[u]]:
            if c in used:
                continue
            # bijection on edges: mapped neighbours must be adjacent,
            # and (since degrees match globally) nothing else checked
            # here can break edge counts
            if all(h.has_edge(c, img) for _, img in mapped_nbrs):
                mapping[u] = c
                used.add(c)
                if backtrack(pos + 1):
                    return True
                del mapping[u]
                used.discard(c)
        return False

    return backtrack(0)
