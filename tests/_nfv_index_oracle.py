"""The per-vertex signature builders of GraphQL and sPath, kept as the
test oracle.

These are the index constructors ``src/repro/matching/graphql.py`` and
``src/repro/matching/spath.py`` had before one counting pass
(``repro.matching.masks.label_count_thresholds``) replaced them, moved
here verbatim: GraphQL counts each vertex's neighbour labels with one
``Counter``, and sPath runs one bitmask breadth-first search per vertex
(``_balls``) and ANDs every ball with every label's mask.  They are slow
and they are the definition of correct: ``tests/test_nfv_index.py``
requires the production tables to equal theirs, on the NFV datasets
and on generated graphs.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs import LabeledGraph
from repro.matching import GraphIndex
from repro.matching.masks import Thresholds, threshold_masks

__all__ = ["GraphQLIndex", "SPathIndex"]


class GraphQLIndex(GraphIndex):
    """GraphIndex plus neighbour-label signatures as threshold masks.

    ``mask_ge(neighbour_thresholds.get(lab), k)`` is the set of stored
    vertices with at least ``k`` neighbours labelled ``lab``.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        super().__init__(graph)
        labels = self.labels
        by_count: dict[object, dict[int, int]] = {}
        for v, nbrs in enumerate(self.adjacency):
            bit = 1 << v
            for lab, k in Counter([labels[w] for w in nbrs]).items():
                row = by_count.setdefault(lab, {})
                row[k] = row.get(k, 0) | bit
        self.neighbour_thresholds: dict[object, Thresholds] = {
            lab: threshold_masks(row) for lab, row in by_count.items()
        }


def _balls(adj_masks: tuple[int, ...], v: int, radius: int) -> list[int]:
    """``result[d - 1]``: bitmask of the vertices at shortest-path
    distance ``1 .. d`` from ``v`` — a breadth-first search whose
    frontier, like its visited set, is one int."""
    origin = 1 << v
    seen = origin
    frontier = origin
    balls = []
    for _ in range(radius):
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj_masks[low.bit_length() - 1]
        frontier = reach & ~seen
        seen |= frontier
        balls.append(seen ^ origin)
    return balls


class SPathIndex(GraphIndex):
    """GraphIndex plus cumulative distance-wise signatures, stored as
    threshold masks.

    ``mask_ge(ball_thresholds[d - 1].get(lab), k)`` is the set of stored
    vertices with at least ``k`` vertices labelled ``lab`` within
    distance ``d``.

    Parameters
    ----------
    radius:
        Neighbourhood radius (the paper runs sPath with radius 4; the
        scaled-down default is 3, configurable through
        :class:`SPathMatcher`).
    """

    def __init__(self, graph: LabeledGraph, radius: int = 3) -> None:
        super().__init__(graph)
        self.radius = radius
        by_label = list(self.label_masks.items())
        adj_masks = self.adj_masks
        by_count: list[dict[object, dict[int, int]]] = [
            {lab: {} for lab, _ in by_label} for _ in range(radius)
        ]
        for v in range(graph.order):
            bit = 1 << v
            for rows, ball in zip(by_count, _balls(adj_masks, v, radius)):
                for lab, lab_mask in by_label:
                    k = (ball & lab_mask).bit_count()
                    if k:
                        row = rows[lab]
                        row[k] = row.get(k, 0) | bit
        self.ball_thresholds: list[dict[object, Thresholds]] = [
            {lab: threshold_masks(row) for lab, row in rows.items() if row}
            for rows in by_count
        ]
