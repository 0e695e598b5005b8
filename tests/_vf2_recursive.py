"""The recursive VF2 search, kept as the test oracle.

This is the search core ``src/repro/matching/vf2.py`` had before it was
rewritten around a per-query plan and an explicit-stack loop, moved
here verbatim: ``next_query_vertex`` re-derives the match order with a
scan over the query at every search node, and ``search`` is a recursive
generator, one frame per matched vertex (so it raises
``RecursionError`` on queries about as deep as the interpreter's
recursion limit); pools are list comprehensions over adjacency tuples
and lookahead walks ``adj[c]``.  It tries ``root_candidates`` as
listed, so callers hand it the sorted set the production engine reads
the tuple as.  It is slow and it is the definition of correct:
``tests/test_properties.py`` requires the production engine to yield
the same step batches, in the same order, and to return the same
outcome.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.graphs import LabeledGraph
from repro.matching import (
    DEFAULT_MAX_EMBEDDINGS,
    GraphIndex,
    MatchOutcome,
    VF2Matcher,
)
from repro.matching.engine import SearchEngine

__all__ = ["RecursiveVF2Matcher"]


def _label_multiset_feasible(index: GraphIndex, query: LabeledGraph) -> bool:
    """Necessary condition: the stored graph has enough of each label."""
    need: dict[object, int] = {}
    for v in query.vertices():
        lab = query.label(v)
        need[lab] = need.get(lab, 0) + 1
    return all(
        index.label_frequencies.get(lab, 0) >= k for lab, k in need.items()
    )


class RecursiveVF2Matcher(VF2Matcher):
    """:class:`VF2Matcher` with the pre-plan recursive ``engine``."""

    def engine(
        self,
        index: GraphIndex,
        query: LabeledGraph,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
        root_candidates: tuple[int, ...] | None = None,
    ):
        graph = index.graph
        outcome = MatchOutcome(algorithm=self.name)
        nq = query.order
        if nq == 0:
            raise ValueError("empty query graph")
        if (
            nq > graph.order
            or query.size > graph.size
            or not _label_multiset_feasible(index, query)
        ):
            outcome.exhausted = True
            return outcome
            yield  # pragma: no cover - makes this a generator

        # fast-path kernel views (hoisted out of every inner loop)
        adj = index.adjacency
        masks = index.adj_masks
        g_codes = index.label_codes
        q_adj = query.adjacency()
        q_masks = query.adjacency_masks()
        q_labels = query.labels
        # feasibility passed, so every query label exists in the store
        q_codes = tuple(index.code_of[lab] for lab in q_labels)
        q_degrees = tuple(len(nbrs) for nbrs in q_adj)

        q_to_g: dict[int, int] = {}
        matched_mask = 0  # stored-graph vertices in the partial map
        q_matched_mask = 0  # query vertices in the partial map

        if self.selection == "id":
            def selection_key(u: int) -> tuple:
                return (u,)
        elif self.selection == "degree":
            def selection_key(u: int) -> tuple:
                return (-q_degrees[u], u)
        else:  # rarity
            def selection_key(u: int) -> tuple:
                return (
                    index.label_frequencies.get(q_labels[u], 0), u
                )

        def next_query_vertex() -> int:
            """Best unmatched frontier vertex under the policy.

            Falls back to the best unmatched vertex overall when the
            frontier is empty (search start, or disconnected queries).
            """
            best_frontier = -1
            best_any = -1
            for u in range(nq):
                if (q_matched_mask >> u) & 1:
                    continue
                if best_any < 0 or selection_key(u) < selection_key(
                    best_any
                ):
                    best_any = u
                if q_masks[u] & q_matched_mask and (
                    best_frontier < 0
                    or selection_key(u) < selection_key(best_frontier)
                ):
                    best_frontier = u
            return best_frontier if best_frontier >= 0 else best_any

        def candidates(u: int) -> list[int]:
            """Feasible stored-graph candidates for query vertex ``u``.

            Consistency (label match + adjacency to all matched
            neighbours' images, one bitmask intersection) is checked
            here; the caller charges one step per candidate and applies
            the lookahead rules.
            """
            lab_code = q_codes[u]
            imgs = [q_to_g[w] for w in q_adj[u] if (q_matched_mask >> w) & 1]
            if imgs:
                # iterate the image neighbourhood of the first matched
                # neighbour (ID order); require adjacency to the rest
                # via a single mask intersection
                first = imgs[0]
                need = 0
                for img in imgs[1:]:
                    need |= 1 << img
                return [
                    c
                    for c in adj[first]
                    if not (matched_mask >> c) & 1
                    and g_codes[c] == lab_code
                    and masks[c] & need == need
                ]
            pool = (
                root_candidates
                if root_candidates is not None and not q_to_g
                else index.candidates_by_label(q_labels[u])
            )
            return [
                c
                for c in pool
                if not (matched_mask >> c) & 1 and g_codes[c] == lab_code
            ]

        def record() -> None:
            outcome.found = True
            outcome.num_embeddings += 1
            if not count_only:
                outcome.embeddings.append(dict(q_to_g))

        def search() -> SearchEngine:
            nonlocal matched_mask, q_matched_mask
            if len(q_to_g) == nq:
                record()
                return None
            u = next_query_vertex()
            # lookahead rules 2/3, query side: constant across the
            # candidate loop (the partial map is frame-invariant)
            q_frontier = 0
            q_rest = 0
            for w in q_adj[u]:
                if (q_matched_mask >> w) & 1:
                    continue
                if q_masks[w] & q_matched_mask:
                    q_frontier += 1
                else:
                    q_rest += 1
            q_total = q_frontier + q_rest
            u_bit = 1 << u
            pending = 0  # batched candidate-probe steps
            for c in candidates(u):
                pending += 1
                # lookahead, graph side; counts only grow, so stop as
                # soon as both dominance conditions hold
                g_frontier = 0
                g_rest = 0
                ok = q_total == 0
                if not ok:
                    for d in adj[c]:
                        if (matched_mask >> d) & 1:
                            continue
                        if masks[d] & matched_mask:
                            g_frontier += 1
                        else:
                            g_rest += 1
                        if (
                            g_frontier >= q_frontier
                            and g_frontier + g_rest >= q_total
                        ):
                            ok = True
                            break
                if not ok:
                    continue
                yield pending
                pending = 0
                q_to_g[u] = c
                matched_mask |= 1 << c
                q_matched_mask |= u_bit
                yield from search()
                del q_to_g[u]
                matched_mask &= ~(1 << c)
                q_matched_mask &= ~u_bit
                if outcome.num_embeddings >= max_embeddings:
                    return None
            if pending:
                yield pending
            return None

        yield from search()
        # the search ended on its own (space exhausted or embedding cap
        # reached) — either way this attempt completed, it was not killed
        outcome.exhausted = True
        return outcome
