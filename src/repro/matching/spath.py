"""sPath matcher (Zhao & Han, PVLDB 2010).

Per the paper's §3.1.2 description, sPath:

* maintains, per stored vertex, a **neighbourhood signature** of shortest
  paths, stored *decomposed in a distance-wise structure* (for each
  distance ``d`` up to the neighbourhood radius, how many vertices of
  each label sit at distance exactly ``d``) — this avoids materialising
  actual paths;
* at query time decomposes the query into **shortest paths that cover
  all its edges**, and selects, among candidate decompositions, paths
  that (i) cover the query and (ii) have good selectivity — i.e.
  minimise the estimated result size of each join;
* matches the selected paths one at a time against candidate paths of
  the stored graph, with **edge-by-edge verification**.

This reproduction implements the distance-wise signature filter exactly
(cumulative containment per label and distance — a sound necessary
condition for sub-iso), a greedy minimum-selectivity path cover, and
path-at-a-time backtracking with edge-by-edge verification.  The paths'
vertex order (and therefore the whole search order) depends on node-ID
tie-breaks, which is what makes sPath strongly rewriting-sensitive
(the paper reports (max/min)QLA up to 6695x for sPath on yeast).

One engine step is charged per filter probe and per join candidate
probe.

Vertex sets are bitmasks
------------------------

Every vertex set in the index and the engine is one int over vertex
IDs (:mod:`repro.matching.masks`).

* **Signatures.**  Balls grow for every vertex at once, level by
  level (:func:`repro.matching.masks.ball_levels`), on the index and
  the query side of the filter alike.  The index keeps, per distance
  and label, *threshold masks* over how many vertices of that label lie
  within that distance, counted for all vertices in one pass of
  bit-sliced label counters
  (:func:`repro.matching.masks.label_count_thresholds`); a stored
  vertex dominates a query vertex iff it passes ``mask_ge`` for every
  (distance, label, count) the query vertex shows, so the survivors
  are the label's vertices ANDed with those masks — billed, as ever,
  one step per vertex of the label.
* **Joins.**  The path cover fixes the slots, and with them, per
  level of the search: the vertex bound there, the level whose image's
  neighbourhood it scans (its path predecessor), its already-bound
  neighbours, and the junction revisits that follow it.
  :func:`repro.matching.masks.mask_join` backtracks over those tables
  in one explicit-stack loop, so the query size is not bounded by the
  interpreter's recursion limit.

The sequence of yielded step batches is part of the contract (see
:meth:`repro.matching.engine.Matcher.engine`) and is identical, value
for value, to the ``Counter``-signature recursive engine kept as the
test oracle in ``tests/_nfv_recursive.py``.
"""

from __future__ import annotations

from ..graphs import LabeledGraph
from .engine import (
    DEFAULT_MAX_EMBEDDINGS,
    GraphIndex,
    Matcher,
    MatchOutcome,
    SearchEngine,
    label_masks,
)
from .masks import (
    Thresholds,
    ball_levels,
    label_count_thresholds,
    mask_ge,
    mask_join,
)

__all__ = ["SPathMatcher", "SPathIndex"]


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
        self.ball_thresholds: list[dict[object, Thresholds]] = (
            label_count_thresholds(
                self.adj_masks, self.adjacency, self.label_index, radius
            )
        )


class SPathMatcher(Matcher):
    """sPath: distance-signature filtering + path-at-a-time joins.

    Parameters
    ----------
    radius:
        Signature neighbourhood radius (paper default 4; scaled default 3).
    max_path_length:
        Maximum edges per decomposed path (paper default 4).
    """

    name = "SPA"

    def __init__(self, radius: int = 3, max_path_length: int = 4) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        self.radius = radius
        self.max_path_length = max_path_length

    def prepare_key(self) -> tuple:
        # the distance signatures depend on the radius
        return (*super().prepare_key(), self.radius)

    def _build_index(self, graph: LabeledGraph) -> SPathIndex:
        return SPathIndex(graph, radius=self.radius)

    # ------------------------------------------------------------------
    # query decomposition
    # ------------------------------------------------------------------

    def _path_cover(
        self, query: LabeledGraph, cand_size: list[int]
    ) -> list[list[int]]:
        """Greedy minimum-selectivity path cover of the query's edges.

        Starting from the uncovered edge whose endpoint has the smallest
        candidate list, grow a path through uncovered edges, at each hop
        taking the neighbour with the smallest candidate list (ties by
        node ID), up to ``max_path_length`` edges.  Repeat until every
        edge is covered.  Paths are then ordered by estimated result
        size — the product of their vertices' candidate-list sizes —
        which realises the paper's "good selectivity" path selection.
        """
        uncovered = set(query.edges())
        paths: list[list[int]] = []
        while uncovered:
            # seed: uncovered edge with the most selective endpoint
            seed = min(
                uncovered,
                key=lambda e: (
                    min(cand_size[e[0]], cand_size[e[1]]),
                    e,
                ),
            )
            u, v = seed
            if cand_size[v] < cand_size[u]:
                u, v = v, u
            path = [u, v]
            uncovered.discard((min(u, v), max(u, v)))
            while len(path) - 1 < self.max_path_length:
                tail = path[-1]
                options = [
                    w
                    for w in query.neighbors(tail)
                    if (min(tail, w), max(tail, w)) in uncovered
                ]
                if not options:
                    break
                nxt = min(options, key=lambda w: (cand_size[w], w))
                path.append(nxt)
                uncovered.discard((min(tail, nxt), max(tail, nxt)))
            paths.append(path)

        def estimated_size(path: list[int]) -> float:
            est = 1.0
            for w in path:
                est *= max(cand_size[w], 1)
            return est

        # join-order selection: most selective path first, then always a
        # path sharing a vertex with the already-selected region (the
        # join stays connected, avoiding Cartesian blowups), again by
        # estimated result size.  This realises the paper's "minimise
        # the estimated result-set size of each join operation".
        remaining = sorted(paths, key=lambda p: (estimated_size(p), p))
        ordered: list[list[int]] = []
        covered: set[int] = set()
        while remaining:
            connected = [
                p for p in remaining if covered and not covered.isdisjoint(p)
            ]
            pool = connected if connected else remaining
            best = min(pool, key=lambda p: (estimated_size(p), p))
            remaining.remove(best)
            ordered.append(best)
            covered.update(best)
        return ordered

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------

    def engine(
        self,
        index: GraphIndex,
        query: LabeledGraph,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> SearchEngine:
        if not isinstance(index, SPathIndex):
            index = self.prepare(index.graph)
        graph = index.graph
        outcome = MatchOutcome(algorithm=self.name)
        nq = query.order
        if nq == 0:
            raise ValueError("empty query graph")
        if nq > graph.order or query.size > graph.size:
            outcome.exhausted = True
            return outcome
            yield  # pragma: no cover - makes this a generator

        # fast-path kernel views
        masks = index.adj_masks
        q_adj = query.adjacency()
        q_labels = query.labels

        # ---- vertex filtering via distance-wise signatures ------------
        # sound filter: for every distance d and label, the stored
        # vertex must see at least as many label occurrences within
        # distance d as the query vertex does (images of distance-d
        # query vertices lie within distance d)
        q_adj_masks = query.adjacency_masks()
        q_label_masks = list(
            label_masks(query.kernel().label_buckets).items()
        )
        levels = list(
            zip(
                index.ball_thresholds,
                ball_levels(q_adj_masks, q_adj, index.radius),
            )
        )
        label_frequencies = index.label_frequencies
        cand: list[int] = []  # per query vertex, its candidates' bitmask
        for u in range(nq):
            lab = q_labels[u]
            mask = index.label_masks.get(lab, 0)
            bit = 1 << u
            for thresholds, balls in levels:
                ball = balls[u] ^ bit
                for ball_lab, lab_mask in q_label_masks:
                    k = (ball & lab_mask).bit_count()
                    if k:
                        mask &= mask_ge(thresholds.get(ball_lab), k)
            pool_size = label_frequencies.get(lab)
            if pool_size:
                yield pool_size  # one step per filter probe, batched
            if not mask:
                outcome.exhausted = True
                return outcome
            cand.append(mask)

        # ---- path cover + flattened matching slots ---------------------
        paths = self._path_cover(query, [mask.bit_count() for mask in cand])
        # a slot is (query vertex, predecessor in its path or None); the
        # first slot of a vertex binds it and is a level of the search,
        # a later one is a junction revisit, checked at the level it
        # follows.  Per level, functions of the cover alone:
        order: list[int] = []  # the query vertex bound there
        opener: list[int] = []  # level of its path predecessor, or -1
        back: list[list[int]] = []  # levels of its bound neighbours
        checks: list[list[tuple[int, int]]] = []  # (opener, level) revisits
        level_of: dict[int, int] = {}

        def add_slot(w: int, prev: int | None) -> None:
            before = -1 if prev is None else level_of[prev]
            if w in level_of:
                checks[-1].append((before, level_of[w]))
                return
            back.append([level_of[x] for x in q_adj[w] if x in level_of])
            level_of[w] = len(order)
            order.append(w)
            opener.append(before)
            checks.append([])

        for path in paths:
            # a candidate path can be matched from either end; start at
            # the end already bound by previous joins when possible
            if path[-1] in level_of and path[0] not in level_of:
                path = path[::-1]
            prev: int | None = None
            for w in path:
                add_slot(w, prev)
                prev = w
        # isolated query vertices (no edges) still need slots
        for u in range(nq):
            if not q_adj[u]:
                add_slot(u, None)
        assert len(order) == nq

        # ---- joins (backtracking along the slots) -----------------------
        yield from mask_join(
            masks,
            order,
            cands=[cand[u] for u in order],
            back=back,
            opener=opener,
            checks=checks,
            outcome=outcome,
            max_embeddings=max_embeddings,
            count_only=count_only,
        )
        outcome.exhausted = True
        return outcome
