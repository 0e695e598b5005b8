"""VF2 subgraph-isomorphism matcher (Cordella et al., TPAMI 2004).

VF2 is the verification algorithm underneath both FTV methods studied in
the paper (Grapes and GGSX).  Per the paper's §3.1.1 description:

* VF2 **does not define any order** in which query vertices are selected;
  given a partial mapping it extends it with a still-unmatched query
  vertex adjacent to the matched ones.  This reproduction resolves the
  "any order" to *ascending node ID* — exactly the property that makes
  VF2's running time depend dramatically on the (arbitrary) node-ID
  assignment, and hence makes the paper's isomorphic rewritings
  effective.
* Candidates for an unmatched query vertex are the same-label vertices of
  the stored graph, filtered by VF2's three pruning rules:

  1. candidates must be directly connected to the already-matched part of
     the stored graph (we enforce the stronger, correctness-required form:
     adjacent to the images of *all* matched neighbours);
  2. a lookahead on frontier degrees: the candidate must have at least as
     many unmatched neighbours adjacent to matched vertices as the query
     vertex does;
  3. a lookahead on the remaining neighbours: ditto for neighbours not
     adjacent to the matched region.

The engine charges one step per candidate-pair feasibility probe
(batched: consecutive probes are yielded as one int — see
:mod:`repro.matching.engine`), probing adjacency through the stored
graph's bitmask kernel.

Plan once, search without recursion
-----------------------------------

Under every selection policy the next query vertex is chosen from the
*matched set* alone, and the matched set at depth ``d`` is the first
``d`` vertices of the order itself — so the order is a pure function of
the query (plus, for ``rarity``, the stored graph's label frequencies)
and never of the stored-graph vertices tried so far.  :class:`VF2Plan`
computes it once, together with everything else the search reads from
the query per level; a filter-then-verify sweep builds one plan per
rewritten query and hands it to the engine of every candidate graph.

The search itself is one explicit-stack loop in a single generator
frame (one image slot and one remaining-candidates mask per level), so
a yield costs one resume whatever the depth and the query size is not
bounded by the interpreter's recursion limit — a 1 500-vertex path
query is 1 500 steps, not a ``RecursionError``.  The sequence of
yielded step batches is part of the contract (the race executors feed
each round's batch to the dispatcher's virtual clock) and is identical,
value for value, to the recursive search kept as the test oracle in
``tests/_vf2_recursive.py``.

Pools and lookahead are mask expressions
----------------------------------------

Every vertex set of the search is one int over stored-graph vertex IDs
(bit ``v`` means vertex ``v``, as in ``adj_masks``).  A level's pool is
``label_masks[label] & unmatched & adj_masks[image[lv]] …`` over the
levels ``lv`` of the query vertex's matched neighbours (none for a
root), read lowest bit first — so candidates come in ascending ID order
by construction.  Lookahead rules 2/3 are two popcounts: with ``free =
adj_masks[c] & unmatched`` and ``front`` the OR of the matched images'
neighbourhoods, ``c`` is rejected iff ``free`` holds fewer than
``q_total`` vertices or ``free & front`` fewer than ``q_frontier``.
Nothing walks an adjacency list.  A step is still one pool member — the
pool holds exactly the vertices the scanning search found consistent —
so the bill needs no reconstruction.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..graphs import LabeledGraph
from .engine import (
    DEFAULT_MAX_EMBEDDINGS,
    GraphIndex,
    Matcher,
    MatchOutcome,
    SearchEngine,
)

__all__ = ["VF2Matcher", "VF2Plan", "SELECTION_POLICIES"]


#: Vertex-selection policies: how the "any order" of the original VF2
#: is resolved.  ``id`` is the faithful default (and the lever that
#: makes rewritings matter); the others exist for the candidate-order
#: ablation, which shows that a smarter built-in order removes much of
#: the ID sensitivity — at the price of picking *one* heuristic for all
#: queries, exactly the trade-off the paper's Ψ-framework sidesteps.
SELECTION_POLICIES = ("id", "degree", "rarity")


class VF2Plan:
    """Everything one VF2 search reads from the query, per match level.

    ``selection`` names the policy and ``keys[u]`` is its key for
    query vertex ``u`` (smaller is picked first; the vertex ID is
    always the last component, so keys are totally ordered).  Level
    ``d`` matches query vertex ``order[d]``:

    * ``labels[d]`` — its label (the engine looks up the stored
      graph's mask of it);
    * ``back[d]`` — the levels of its already-matched neighbours, in
      adjacency (ascending ID) order; empty for a root — level 0, or
      the first vertex of a further component of a disconnected query;
    * ``q_frontier[d]`` / ``q_total[d]`` — lookahead rules 2/3, query
      side: its unmatched neighbours adjacent to the matched set, and
      all of its unmatched neighbours;
    * ``need`` — the query's label histogram (the stored graph must
      hold at least as many of each label).

    A plan is read-only once built, so any number of engines — one per
    candidate graph of a sweep, live at the same time or not — may share
    it.
    """

    __slots__ = (
        "query", "selection", "order", "labels", "back", "q_frontier",
        "q_total", "need",
    )

    def __init__(
        self, query: LabeledGraph, selection: str, keys: list[tuple]
    ) -> None:
        nq = query.order
        if nq == 0:
            raise ValueError("empty query graph")
        q_adj = query.adjacency()
        self.query = query
        self.selection = selection
        order: list[int] = []
        back = []
        q_frontier = []
        q_total = []
        level_of = [-1] * nq  # -1: not matched yet
        remaining = set(range(nq))
        frontier: set[int] = set()  # unmatched, adjacent to a matched one
        for level in range(nq):
            # best unmatched frontier vertex under the policy; the best
            # unmatched vertex overall when the frontier is empty
            # (search start, or a disconnected query)
            u = min(frontier or remaining, key=keys.__getitem__)
            back.append(
                tuple(level_of[w] for w in q_adj[u] if level_of[w] >= 0)
            )
            ahead = [w for w in q_adj[u] if level_of[w] < 0]
            q_total.append(len(ahead))
            q_frontier.append(sum(w in frontier for w in ahead))
            order.append(u)
            level_of[u] = level
            remaining.discard(u)
            frontier.discard(u)
            frontier.update(ahead)
        q_labels = query.labels
        self.order = tuple(order)
        self.labels = tuple(q_labels[u] for u in order)
        self.back = tuple(back)
        self.q_frontier = tuple(q_frontier)
        self.q_total = tuple(q_total)
        self.need = Counter(q_labels)


class VF2Matcher(Matcher):
    """VF2 with configurable next-vertex selection (default: node ID).

    Parameters
    ----------
    selection:
        ``"id"`` — smallest node ID on the frontier (paper-faithful);
        ``"degree"`` — highest query degree first (DND-like built-in);
        ``"rarity"`` — rarest label in the stored graph first
        (ILF-like built-in).
    """

    name = "VF2"

    def __init__(self, selection: str = "id") -> None:
        if selection not in SELECTION_POLICIES:
            raise ValueError(
                f"selection must be one of {SELECTION_POLICIES}"
            )
        self.selection = selection
        if selection != "id":
            self.name = f"VF2[{selection}]"

    def plan(self, query: LabeledGraph) -> Optional[VF2Plan]:
        """The search plan of ``query`` that every stored graph shares.

        ``id`` and ``degree`` read the query alone, so a sweep calls
        this once and passes the result to each :meth:`engine`.
        ``rarity`` ranks by the stored graph's label frequencies:
        there is nothing to share and the answer is None, which
        :meth:`engine` takes as "plan for this graph yourself".
        """
        if self.selection == "rarity":
            return None
        return self._plan(query, None)

    def _plan(
        self, query: LabeledGraph, index: Optional[GraphIndex]
    ) -> VF2Plan:
        if self.selection == "id":
            keys = [(u,) for u in query.vertices()]
        elif self.selection == "degree":
            keys = [
                (-len(nbrs), u) for u, nbrs in enumerate(query.adjacency())
            ]
        else:  # rarity
            freq = index.label_frequencies
            keys = [
                (freq.get(lab, 0), u) for u, lab in enumerate(query.labels)
            ]
        return VF2Plan(query, self.selection, keys)

    def engine(
        self,
        index: GraphIndex,
        query: LabeledGraph,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
        root_candidates: tuple[int, ...] | None = None,
        plan: Optional[VF2Plan] = None,
    ) -> SearchEngine:
        """See :meth:`Matcher.engine`.

        ``root_candidates`` optionally narrows level 0's candidate
        pool — the stored-graph vertices tried for the *first* matched
        query vertex — to the given vertices that carry its label.  It
        is read as a *set*: like every pool of the search the roots are
        tried in ascending ID order and once each, whatever order the
        tuple lists them in and however often.  Grapes' multithreaded
        verification partitions the root candidate set into contiguous
        slices, one per thread — the union of slices explores exactly
        the full search space, so racing slices is a sound
        parallelisation of a single VF2 run.

        ``plan`` is the shared :meth:`plan` of ``query`` when the
        caller verifies it against many graphs; left out (or None, as
        ``rarity`` plans are per graph) the engine plans for itself.
        Either way the search, its yields and its outcome are the same.
        """
        if plan is None:
            plan = self._plan(query, index)
        elif plan.query is not query or plan.selection != self.selection:
            raise ValueError(
                "plan was built for a different query or selection policy"
            )
        graph = index.graph
        outcome = MatchOutcome(algorithm=self.name)
        nq = query.order
        label_frequencies = index.label_frequencies
        if (
            nq > graph.order
            or query.size > graph.size
            # necessary condition: enough of each label in the store
            or any(
                label_frequencies.get(lab, 0) < k
                for lab, k in plan.need.items()
            )
        ):
            outcome.exhausted = True
            return outcome
            yield  # pragma: no cover - makes this a generator

        # every vertex set below is one int over stored-graph vertex
        # IDs; feasibility passed, so every query label has a mask
        adj_masks = index.adj_masks
        label_masks = index.label_masks
        labels = plan.labels
        order = plan.order
        back = plan.back
        q_frontiers = plan.q_frontier
        q_totals = plan.q_total

        image = [0] * nq  # image[d]: stored-graph vertex of level d
        # per level, saved while the search is below it
        todo = [0] * nq  # the level's candidates not tried yet
        fronts = [0] * nq  # ``front`` as the level found it
        # stored-graph vertices outside the partial map (kept as the
        # complement so "and not matched" is one AND)
        unmatched = (1 << graph.order) - 1
        front = 0  # OR of the matched images' neighbourhoods
        found = 0
        level = 0
        leaf = nq - 1
        rest = label_masks[labels[0]]
        if root_candidates is not None:
            roots = 0
            for c in root_candidates:
                roots |= 1 << c
            rest &= roots
        q_frontier = q_frontiers[0]
        q_total = q_totals[0]
        pending = 0  # batched candidate-probe steps
        while True:
            if rest:
                # lowest bit first: candidates in ascending ID order
                low = rest & -rest
                rest ^= low
                pending += 1
                c = low.bit_length() - 1
                # lookahead, graph side: the candidate's unmatched
                # neighbours, and those of them next to a matched vertex
                if q_total:
                    free = adj_masks[c] & unmatched
                    if (
                        free.bit_count() < q_total
                        or (free & front).bit_count() < q_frontier
                    ):
                        continue
                yield pending
                pending = 0
                image[level] = c
                if level == leaf:
                    found += 1
                    if not count_only:
                        outcome.embeddings.append(dict(zip(order, image)))
                    if found >= max_embeddings:
                        break
                    continue
                # descend: the next level's candidates are consistent
                # by construction (label match, unmatched, adjacent to
                # the images of all matched neighbours — none for the
                # root of a further component of a disconnected query)
                todo[level] = rest
                fronts[level] = front
                unmatched ^= low
                front |= adj_masks[c]
                level += 1
                rest = label_masks[labels[level]] & unmatched
                for lv in back[level]:
                    rest &= adj_masks[image[lv]]
            else:
                # this level's candidates are spent: back up one
                if pending:
                    yield pending
                    pending = 0
                level -= 1
                if level < 0 or found >= max_embeddings:
                    break
                unmatched |= 1 << image[level]
                rest = todo[level]
                front = fronts[level]
            q_frontier = q_frontiers[level]
            q_total = q_totals[level]
        # the search ended on its own (space exhausted or embedding cap
        # reached) — either way this attempt completed, it was not killed
        outcome.found = found > 0
        outcome.num_embeddings = found
        outcome.exhausted = True
        return outcome
