"""The recursive GraphQL and sPath engines, kept as the test oracle.

These are the indexes and search cores ``src/repro/matching/graphql.py``
and ``src/repro/matching/spath.py`` had before they were rewritten
around threshold masks, one bitmask BFS and explicit-stack joins, moved
here verbatim: the indexes hold one ``Counter`` (GraphQL) or one list
of cumulative ``Counter`` layers (sPath, from a dict/deque BFS) per
stored vertex, rule 1 walks them once per pool vertex
(``_signature_contains`` / ``_signature_dominates``), GraphQL's
pseudo-iso test runs Kuhn's algorithm over whole neighbour tuples, and
both joins are recursive generators, one frame per plan position (so
they raise ``RecursionError`` on queries about as deep as the
interpreter's recursion limit).  They are slow and they are the
definition of correct: ``tests/test_properties.py`` and
``tests/test_executor_equivalence.py`` require the production engines
to yield the same step batches, in the same order, and to return the
same outcome.  The plan logic (GraphQL's greedy left-deep order,
``SPathMatcher._path_cover``) was not rewritten; sPath's is inherited.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import Counter, deque

from repro.graphs import LabeledGraph
from repro.matching import (
    DEFAULT_MAX_EMBEDDINGS,
    GraphIndex,
    GraphQLMatcher,
    MatchOutcome,
    SPathMatcher,
)
from repro.matching.engine import SearchEngine

__all__ = [
    "GraphQLIndex",
    "RecursiveGraphQLMatcher",
    "SPathIndex",
    "RecursiveSPathMatcher",
    "distance_signature",
]


# ----------------------------------------------------------------------
# GraphQL
# ----------------------------------------------------------------------


class GraphQLIndex(GraphIndex):
    """GraphIndex plus per-vertex neighbour-label signatures."""

    def __init__(self, graph: LabeledGraph) -> None:
        super().__init__(graph)
        self.signatures: list[Counter] = [
            Counter(graph.label(w) for w in graph.neighbors(v))
            for v in graph.vertices()
        ]


def _signature_contains(big: Counter, small: Counter) -> bool:
    """Multiset containment ``small <= big``."""
    return all(big.get(lab, 0) >= k for lab, k in small.items())


class RecursiveGraphQLMatcher(GraphQLMatcher):
    """:class:`GraphQLMatcher` with the pre-rewrite index and engine."""

    def _build_index(self, graph: LabeledGraph) -> GraphQLIndex:
        return GraphQLIndex(graph)

    def engine(
        self,
        index: GraphIndex,
        query: LabeledGraph,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> SearchEngine:
        if not isinstance(index, GraphQLIndex):
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
        adj = index.adjacency
        masks = index.adj_masks
        sigs = index.signatures
        q_adj = query.adjacency()
        q_labels = query.labels

        q_sigs = [
            Counter(q_labels[w] for w in q_adj[u])
            for u in query.vertices()
        ]

        # ---- rule 1: label + signature containment filter -------------
        cand: list[list[int]] = []
        for u in query.vertices():
            pool = index.candidates_by_label(q_labels[u])
            q_sig = q_sigs[u]
            lst = [
                c for c in pool if _signature_contains(sigs[c], q_sig)
            ]
            if len(pool):
                yield len(pool)  # one step per filter probe, batched
            if not lst:
                outcome.exhausted = True
                return outcome
            cand.append(lst)

        cand_sets = [set(lst) for lst in cand]

        # ---- rule 2: iterative pseudo subgraph isomorphism -------------
        def pseudo_iso_ok(u: int, c: int) -> bool:
            """Bipartite test: distinct candidate neighbours for all of
            u's neighbours (Kuhn's algorithm)."""
            q_nbrs = q_adj[u]
            c_nbrs = adj[c]
            if len(q_nbrs) > len(c_nbrs):
                return False
            match_of: dict[int, int] = {}  # graph nbr -> query nbr

            def try_assign(w: int, visited: set[int]) -> bool:
                cand_w = cand_sets[w]
                for d in c_nbrs:
                    if d in visited or d not in cand_w:
                        continue
                    visited.add(d)
                    if d not in match_of or try_assign(
                        match_of[d], visited
                    ):
                        match_of[d] = w
                        return True
                return False

            return all(try_assign(w, set()) for w in q_nbrs)

        for _ in range(self.refine_level):
            changed = False
            for u in query.vertices():
                lst = cand[u]
                survivors = [c for c in lst if pseudo_iso_ok(u, c)]
                yield len(lst)  # one step per pair test, batched
                if len(survivors) != len(lst):
                    changed = True
                    if not survivors:
                        outcome.exhausted = True
                        return outcome
                    cand[u] = survivors
                    cand_sets[u] = set(survivors)
            if not changed:
                break

        # ---- rule 3: left-deep search-order optimisation ----------------
        # greedy plan: start at the smallest candidate list; extend with
        # the connected vertex minimising the estimated intermediate
        # result size |cand| * gamma^(#join edges).  Ties break by ID.
        gamma = 0.5
        order: list[int] = []
        chosen: set[int] = set()
        first = min(query.vertices(), key=lambda u: (len(cand[u]), u))
        order.append(first)
        chosen.add(first)
        while len(order) < nq:
            best_u = -1
            best_cost = float("inf")
            for u in query.vertices():
                if u in chosen:
                    continue
                links = sum(1 for w in query.neighbors(u) if w in chosen)
                if links == 0:
                    continue
                cost = len(cand[u]) * (gamma ** links)
                if cost < best_cost or (cost == best_cost and u < best_u):
                    best_cost = cost
                    best_u = u
            if best_u < 0:
                # disconnected query: pick the globally cheapest remaining
                best_u = min(
                    (u for u in query.vertices() if u not in chosen),
                    key=lambda u: (len(cand[u]), u),
                )
            order.append(best_u)
            chosen.add(best_u)

        # ---- joins (backtracking along the plan) -----------------------
        q_to_g: dict[int, int] = {}
        used_mask = 0

        def search(pos: int) -> SearchEngine:
            nonlocal used_mask
            if pos == nq:
                outcome.found = True
                outcome.num_embeddings += 1
                if not count_only:
                    outcome.embeddings.append(dict(q_to_g))
                return None
            u = order[pos]
            need = 0
            for w in q_adj[u]:
                if w in q_to_g:
                    need |= 1 << q_to_g[w]
            pending = 0  # batched join-candidate probes
            for c in cand[u]:
                pending += 1
                if (used_mask >> c) & 1:
                    continue
                if masks[c] & need == need:
                    yield pending
                    pending = 0
                    q_to_g[u] = c
                    used_mask |= 1 << c
                    yield from search(pos + 1)
                    del q_to_g[u]
                    used_mask &= ~(1 << c)
                    if outcome.num_embeddings >= max_embeddings:
                        return None
            if pending:
                yield pending
            return None

        yield from search(0)
        outcome.exhausted = True
        return outcome


# ----------------------------------------------------------------------
# sPath
# ----------------------------------------------------------------------


def distance_signature(
    graph: LabeledGraph, v: int, radius: int
) -> list[Counter]:
    """Distance-wise label counts around ``v``.

    ``result[d - 1]`` counts labels of vertices at shortest-path distance
    exactly ``d`` (``1 <= d <= radius``) from ``v``.
    """
    sig: list[Counter] = [Counter() for _ in range(radius)]
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        d = dist[u]
        if d == radius:
            continue
        for w in graph.neighbors(u):
            if w not in dist:
                dist[w] = d + 1
                sig[d][graph.label(w)] += 1
                queue.append(w)
    return sig


def _cumulative(sig: list[Counter]) -> list[Counter]:
    """Prefix sums over distance: labels within distance ``<= d``."""
    out: list[Counter] = []
    acc: Counter = Counter()
    for layer in sig:
        acc = acc + layer
        out.append(acc)
    return out


class SPathIndex(GraphIndex):
    """GraphIndex plus cumulative distance-wise signatures."""

    def __init__(self, graph: LabeledGraph, radius: int = 3) -> None:
        super().__init__(graph)
        self.radius = radius
        self.cum_signatures: list[list[Counter]] = [
            _cumulative(distance_signature(graph, v, radius))
            for v in graph.vertices()
        ]


def _signature_dominates(
    g_cum: list[Counter], q_cum: list[Counter]
) -> bool:
    """Sound filter: for every distance d and label, the stored vertex
    must see at least as many label occurrences within distance d as the
    query vertex does (images of distance-d query vertices lie within
    distance d)."""
    for d, q_layer in enumerate(q_cum):
        g_layer = g_cum[d]
        for lab, k in q_layer.items():
            if g_layer.get(lab, 0) < k:
                return False
    return True


class RecursiveSPathMatcher(SPathMatcher):
    """:class:`SPathMatcher` with the pre-rewrite index and engine
    (``_path_cover`` is inherited: it was not rewritten)."""

    def _build_index(self, graph: LabeledGraph) -> SPathIndex:
        return SPathIndex(graph, radius=self.radius)

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
        adj = index.adjacency
        masks = index.adj_masks
        g_cum = index.cum_signatures
        q_adj = query.adjacency()
        q_labels = query.labels

        # ---- vertex filtering via distance-wise signatures ------------
        q_cums = [
            _cumulative(distance_signature(query, u, index.radius))
            for u in query.vertices()
        ]
        cand: list[list[int]] = []
        for u in query.vertices():
            pool = index.candidates_by_label(q_labels[u])
            q_cum = q_cums[u]
            lst = [
                c for c in pool if _signature_dominates(g_cum[c], q_cum)
            ]
            if len(pool):
                yield len(pool)  # one step per filter probe, batched
            if not lst:
                outcome.exhausted = True
                return outcome
            cand.append(lst)
        cand_sets = [set(lst) for lst in cand]

        # ---- path cover + flattened matching slots ---------------------
        paths = self._path_cover(query, [len(lst) for lst in cand])
        # slots: (query vertex, predecessor in its path or None)
        slots: list[tuple[int, int | None]] = []
        slotted: set[int] = set()
        for path in paths:
            # a candidate path can be matched from either end; start at
            # the end already bound by previous joins when possible
            if path[-1] in slotted and path[0] not in slotted:
                path = path[::-1]
            prev: int | None = None
            for w in path:
                slots.append((w, prev))
                prev = w
                slotted.add(w)
        # isolated query vertices (no edges) still need slots
        for u in query.vertices():
            if query.degree(u) == 0:
                slots.append((u, None))
                slotted.add(u)
        assert slotted == set(query.vertices())

        q_to_g: dict[int, int] = {}
        used_mask = 0
        n_slots = len(slots)

        def search(pos: int) -> SearchEngine:
            nonlocal used_mask
            if pos == n_slots:
                outcome.found = True
                outcome.num_embeddings += 1
                if not count_only:
                    outcome.embeddings.append(dict(q_to_g))
                return None
            u, prev = slots[pos]
            if u in q_to_g:
                # revisited path junction: edge-by-edge verification only
                yield
                if prev is not None and not (
                    masks[q_to_g[prev]] >> q_to_g[u]
                ) & 1:
                    return None
                yield from search(pos + 1)
                return None
            need = 0
            for w in q_adj[u]:
                if w in q_to_g:
                    need |= 1 << q_to_g[w]
            pool = (
                adj[q_to_g[prev]] if prev is not None else cand[u]
            )
            cand_u = cand_sets[u]
            pending = 0  # batched join-candidate probes
            for c in pool:
                pending += 1
                if (used_mask >> c) & 1 or c not in cand_u:
                    continue
                if masks[c] & need == need:
                    yield pending
                    pending = 0
                    q_to_g[u] = c
                    used_mask |= 1 << c
                    yield from search(pos + 1)
                    del q_to_g[u]
                    used_mask &= ~(1 << c)
                    if outcome.num_embeddings >= max_embeddings:
                        return None
            if pending:
                yield pending
            return None

        yield from search(0)
        outcome.exhausted = True
        return outcome
