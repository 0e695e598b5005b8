"""GraphQL matcher (He & Singh, SIGMOD 2008).

Per the paper's §3.1.2 description, GraphQL:

* indexes, for every stored vertex, its label plus a **neighbourhood
  signature** capturing the labels of neighbouring nodes within a radius,
  in lexicographic order;
* at query time retrieves all possible matches per pattern vertex, then
  prunes with three rules: (1) label + signature containment, (2) an
  iterative **pseudo subgraph isomorphism** test up to level ``l`` (for
  every surviving pair, the neighbours of the query vertex must be
  matchable to *distinct* neighbours of the stored vertex), and (3) a
  **search-order optimisation** over left-deep join plans driven by
  estimated intermediate result sizes;
* finally executes the sub-iso test as a series of joins over the
  candidate lists.

Tie-breaks in plan selection are by node ID — the paper's results show
GraphQL is the *least* rewriting-sensitive NFV method because this plan
logic is relatively ID-insensitive, and the same holds here (the
estimates dominate; IDs only break ties).

One engine step is charged per filter probe, per pseudo-iso pair test
and per join candidate probe.

Candidate sets are bitmasks
---------------------------

Every candidate set in the engine is one int over stored-graph vertex
IDs (:mod:`repro.matching.masks`), a "list" is that int read in
ascending bit order, and the bill is what walking the lists would cost.

* **Rule 1.**  The index keeps, per label, *threshold masks* over the
  number of neighbours carrying that label.  A stored vertex's
  signature contains a query vertex's iff for each label the query
  vertex sees ``k`` times the stored vertex sees it at least ``k``
  times, so the survivors are the label's vertices ANDed with one
  ``mask_ge`` per distinct neighbour label — billed, as ever, one step
  per vertex of the label.
* **Rule 2.**  ``c`` survives for ``u`` iff ``u``'s neighbours can pick
  distinct representatives from ``adj_masks[c] & candidates(w)``; an
  empty intersection rejects at once, and Kuhn's augmenting paths only
  ever walk those bits.  Which matching is found does not matter, only
  whether one exists.
* **Joins.**  The plan fixes, per level, the query vertex, its
  candidates and the levels of its already-bound neighbours;
  :func:`repro.matching.masks.mask_join` backtracks over those tables
  in one explicit-stack loop, so the query size is not bounded by the
  interpreter's recursion limit.

The sequence of yielded step batches is part of the contract (see
:meth:`repro.matching.engine.Matcher.engine`) and is identical, value
for value, to the ``Counter``-signature recursive engine kept as the
test oracle in ``tests/_nfv_recursive.py``.
"""

from __future__ import annotations

from collections import Counter

from ..graphs import LabeledGraph
from .engine import (
    DEFAULT_MAX_EMBEDDINGS,
    GraphIndex,
    Matcher,
    MatchOutcome,
    SearchEngine,
)
from .masks import Thresholds, mask_ge, mask_join, threshold_masks

__all__ = ["GraphQLMatcher", "GraphQLIndex"]


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


def _distinct_representatives(avail: list[int]) -> bool:
    """Whether one bit can be picked from every mask, all different.

    Kuhn's algorithm: masks take a free bit while there is one, and
    otherwise look for an augmenting path (depth-first, on an explicit
    stack) that re-seats earlier masks.
    """
    owner: dict[int, int] = {}  # picked bit -> the mask it stands for
    used = 0
    for start, a in enumerate(avail):
        free = a & ~used
        if free:
            low = free & -free
            owner[low] = start
            used |= low
            continue
        visited = 0
        path = [start]  # masks along the alternating path
        via: list[int] = []  # via[k]: the bit path[k + 1] gives up
        while path:
            a = avail[path[-1]] & ~visited
            free = a & ~used
            if free:
                low = free & -free
                used |= low
                for k in range(len(path) - 1, -1, -1):
                    owner[low] = path[k]
                    if k:
                        low = via[k - 1]
                break
            if a:
                low = a & -a
                visited |= low
                via.append(low)
                path.append(owner[low])
            else:
                path.pop()
                if via:
                    via.pop()
        else:
            return False
    return True


class GraphQLMatcher(Matcher):
    """GraphQL: signature filtering, pseudo-iso refinement, ordered joins.

    Parameters
    ----------
    refine_level:
        Number of pseudo sub-iso iterations (the paper runs with
        ``r = 4``).
    """

    name = "GQL"

    def __init__(self, refine_level: int = 4) -> None:
        if refine_level < 0:
            raise ValueError("refine_level must be >= 0")
        self.refine_level = refine_level

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
        masks = index.adj_masks
        q_adj = query.adjacency()
        q_labels = query.labels

        # ---- rule 1: label + signature containment filter -------------
        thresholds = index.neighbour_thresholds
        label_frequencies = index.label_frequencies
        cand: list[int] = []  # per query vertex, its candidates' bitmask
        for u in range(nq):
            lab = q_labels[u]
            mask = index.label_masks.get(lab, 0)
            for nbr_lab, k in Counter(
                [q_labels[w] for w in q_adj[u]]
            ).items():
                mask &= mask_ge(thresholds.get(nbr_lab), k)
            pool_size = label_frequencies.get(lab)
            if pool_size:
                yield pool_size  # one step per filter probe, batched
            if not mask:
                outcome.exhausted = True
                return outcome
            cand.append(mask)

        # ---- rule 2: iterative pseudo subgraph isomorphism -------------
        for _ in range(self.refine_level):
            changed = False
            for u in range(nq):
                mask = cand[u]
                nbr_cands = [cand[w] for w in q_adj[u]]
                survivors = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    c_nbrs = masks[low.bit_length() - 1]
                    avail = []
                    for nbr_cand in nbr_cands:
                        a = c_nbrs & nbr_cand
                        if not a:
                            break
                        avail.append(a)
                    else:
                        if len(avail) < 2 or _distinct_representatives(
                            avail
                        ):
                            survivors |= low
                yield mask.bit_count()  # one step per pair test, batched
                if survivors != mask:
                    changed = True
                    if not survivors:
                        outcome.exhausted = True
                        return outcome
                    cand[u] = survivors
            if not changed:
                break

        # ---- rule 3: left-deep search-order optimisation ----------------
        # greedy plan: start at the smallest candidate list; extend with
        # the connected vertex minimising the estimated intermediate
        # result size |cand| * gamma^(#join edges).  Ties break by ID.
        gamma = 0.5
        sizes = [mask.bit_count() for mask in cand]
        first = min(range(nq), key=lambda u: (sizes[u], u))
        order = [first]
        level_of = {first: 0}
        while len(order) < nq:
            best_u = -1
            best_cost = float("inf")
            for u in range(nq):
                if u in level_of:
                    continue
                links = sum(1 for w in q_adj[u] if w in level_of)
                if links == 0:
                    continue
                cost = sizes[u] * (gamma ** links)
                if cost < best_cost or (cost == best_cost and u < best_u):
                    best_cost = cost
                    best_u = u
            if best_u < 0:
                # disconnected query: pick the globally cheapest remaining
                best_u = min(
                    (u for u in range(nq) if u not in level_of),
                    key=lambda u: (sizes[u], u),
                )
            level_of[best_u] = len(order)
            order.append(best_u)

        # ---- joins (backtracking along the plan) -----------------------
        # per level: its candidates (which it scans itself, no opener,
        # nothing to re-check) and its vertex's already-bound neighbours
        yield from mask_join(
            masks,
            order,
            cands=[cand[u] for u in order],
            back=[
                [level_of[w] for w in q_adj[u] if level_of[w] < level]
                for level, u in enumerate(order)
            ],
            opener=[-1] * nq,
            checks=[()] * nq,
            outcome=outcome,
            max_embeddings=max_embeddings,
            count_only=count_only,
        )
        outcome.exhausted = True
        return outcome
