"""TurboISO-style matcher (Han et al., SIGMOD 2013 — paper ref [6]).

The paper's related-work section points at TurboISO as the
newer-generation algorithm proposed after the comparison study [12]:
"since the publication just a few years ago of [12] ... newer
algorithms have been proposed [6] with better performance.  Nonetheless
all algorithms show exponential execution times even at small query
sizes".  Including it in this reproduction serves two purposes: it
extends the Ψ-framework's portfolio with a genuinely different cost
profile, and it lets the benches confirm the paper's claim that even a
stronger algorithm keeps stragglers (and so still benefits from
racing).

This is a faithful-in-spirit implementation of TurboISO's core ideas:

* **start-vertex selection** by minimum ``freq(label) / degree`` rank;
* a **query spanning tree** rooted at the start vertex (BFS);
* **candidate-region exploration**: for every stored-graph candidate of
  the root, the region's per-query-vertex candidate sets (the CR index)
  are computed top-down along the tree; a region with an empty set is
  pruned wholesale before any matching;
* a **per-region matching order** by ascending candidate-set size
  (connected order over the query);
* backtracking restricted to the region's candidate sets, with
  non-tree query edges verified on the fly.

The NEC (neighbourhood equivalence class) compression of the original
is omitted — it optimises permutations of interchangeable query
vertices, which at this reproduction's query sizes is a constant-factor
concern.

One engine step is charged per region-exploration probe and per join
candidate probe.
"""

from __future__ import annotations

from collections import deque

from ..graphs import LabeledGraph
from .engine import (
    DEFAULT_MAX_EMBEDDINGS,
    GraphIndex,
    Matcher,
    MatchOutcome,
    SearchEngine,
)

__all__ = ["TurboISOMatcher"]


class TurboISOMatcher(Matcher):
    """TurboISO: candidate-region exploration + per-region ordering."""

    name = "TUR"

    def engine(
        self,
        index: GraphIndex,
        query: LabeledGraph,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> SearchEngine:
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
        g_codes = index.label_codes
        degs = index.degrees
        q_adj = query.adjacency()
        q_labels = query.labels

        # ---- start vertex: minimum freq(label)/degree rank ------------
        def rank(u: int) -> tuple:
            freq = index.label_frequencies.get(q_labels[u], 0)
            deg = max(query.degree(u), 1)
            return (freq / deg, u)

        start = min(query.vertices(), key=rank)

        # ---- query spanning tree (BFS from the start vertex) ----------
        parent: dict[int, int | None] = {start: None}
        tree_order: list[int] = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in query.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    tree_order.append(w)
                    queue.append(w)
        if len(tree_order) < nq:
            # disconnected query: attach remaining vertices as extra
            # roots (regions then constrain only the connected part)
            for u in query.vertices():
                if u not in parent:
                    parent[u] = None
                    tree_order.append(u)

        degrees_q = [query.degree(u) for u in query.vertices()]

        def region_candidates(root_image: int):
            """CR sets for the region rooted at ``root_image``.

            Top-down along the tree: a vertex's candidates are the
            label/degree-feasible neighbours of its parent's candidate
            set.  Returns ``None`` (region pruned) when any set empties.
            The engine charges the exploration after the fact (one step
            per surviving CR entry).
            """
            cr: dict[int, set[int]] = {start: {root_image}}
            for u in tree_order[1:]:
                p = parent[u]
                du = degrees_q[u]
                if p is None:
                    pool = index.candidates_by_label(q_labels[u])
                    cr[u] = {c for c in pool if degs[c] >= du}
                    continue
                code = index.code_of.get(q_labels[u], -1)
                found: set[int] = set()
                for vp in cr[p]:
                    for c in adj[vp]:
                        if g_codes[c] == code and degs[c] >= du:
                            found.add(c)
                if not found:
                    return None
                cr[u] = found
            return cr

        def matching_order(cr: dict[int, set[int]]) -> list[int]:
            """Connected order by ascending candidate-set size."""
            order = [start]
            chosen = {start}
            while len(order) < nq:
                best = -1
                best_key: tuple | None = None
                for u in query.vertices():
                    if u in chosen:
                        continue
                    connected = any(
                        w in chosen for w in query.neighbors(u)
                    )
                    key = (0 if connected else 1, len(cr[u]), u)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = u
                order.append(best)
                chosen.add(best)
            return order

        q_to_g: dict[int, int] = {}
        used_mask = 0

        def search(
            pos: int, order: list[int], cr: dict[int, set[int]]
        ) -> SearchEngine:
            nonlocal used_mask
            if pos == nq:
                outcome.found = True
                outcome.num_embeddings += 1
                if not count_only:
                    outcome.embeddings.append(dict(q_to_g))
                return None
            u = order[pos]
            mapped_nbrs = [
                q_to_g[w] for w in q_adj[u] if w in q_to_g
            ]
            if mapped_nbrs:
                cr_u = cr[u]
                pool = [
                    c for c in adj[mapped_nbrs[0]] if c in cr_u
                ]
                need = 0
                for img in mapped_nbrs[1:]:
                    need |= 1 << img
            else:
                pool = sorted(cr[u])
                need = 0
            pending = 0  # batched join-candidate probes
            for c in pool:
                pending += 1
                if (used_mask >> c) & 1:
                    continue
                if masks[c] & need == need:
                    yield pending
                    pending = 0
                    q_to_g[u] = c
                    used_mask |= 1 << c
                    yield from search(pos + 1, order, cr)
                    del q_to_g[u]
                    used_mask &= ~(1 << c)
                    if outcome.num_embeddings >= max_embeddings:
                        return None
            if pending:
                yield pending
            return None

        # ---- region loop ------------------------------------------------
        start_pool = [
            c
            for c in index.candidates_by_label(q_labels[start])
            if degs[c] >= degrees_q[start]
        ]
        rest_order = tree_order[1:]
        pending = 0
        for root_image in start_pool:
            pending += 1  # one step per explored region root
            cr = region_candidates(root_image)
            if cr is None:
                continue
            # charge the region exploration: one step per CR entry
            pending += sum(len(cr[u]) for u in rest_order)
            yield pending
            pending = 0
            order = matching_order(cr)
            q_to_g[start] = root_image
            used_mask |= 1 << root_image
            yield from search(1, order, cr)
            del q_to_g[start]
            used_mask &= ~(1 << root_image)
            if outcome.num_embeddings >= max_embeddings:
                break
        if pending:
            yield pending

        outcome.exhausted = True
        return outcome
