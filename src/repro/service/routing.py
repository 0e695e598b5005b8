"""Shard-aware query routing: prune and order a sharded fan-out.

PR 4's sharded serving fans every query out to every shard holding
graphs; each shard then pays census + filter + race work even when its
partition provably contains no candidate.  The router makes the fan-out
itself cheap: the ticket's one query census — taken by the service in
the collection's label code space, the same one every shard index is
built in — probed against each shard's
:class:`~repro.indexing.sketch.FeatureSketch`, decides per shard in
O(query features) int operations whether the shard can answer at all
— and, for decision-only queries, how *likely* it is to answer first.

The contract (proven in ``tests/test_routing.py``):

* **Pruning is sound.**  A shard is pruned only when its sketch proves
  the query's filter would return zero candidates there (see the
  soundness argument in :mod:`repro.indexing.sketch`); since FTV
  filtering is a per-graph predicate, a pruned shard contributes
  ``found=False`` / zero embeddings / no ids to the merge — exactly
  nothing — so ``found`` / ``num_embeddings`` / ``matching_ids`` are
  bit-for-bit what the unrouted fan-out produces.  When *every* shard
  is prunable (e.g. a query label unknown to the whole collection) the
  plan keeps the lowest involved shard as a witness so the service
  still races and answers through the normal pipeline.
* **Ordering is a heuristic, never a semantic.**  For decision-only
  queries surviving shards are ordered by descending sketch score
  (shard id breaks ties), so the expected-first-true shard races first;
  in full mode every surviving shard runs and the order is ascending
  shard id, exactly the unrouted order.
* **Everything is deterministic.**  Sketches, scores, and orders are
  pure functions of (collection, assignment, query census); the
  ``epoch`` counter bumps when a rebalance changes the assignment or a
  mutation changes the collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..indexing import FTVIndex
from ..indexing.sketch import DEFAULT_SKETCH_BUCKETS, FeatureSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sharding import ShardedEntry

__all__ = ["RoutePlan", "ShardRouter"]


@dataclass(frozen=True)
class RoutePlan:
    """One query's routed fan-out over a sharded entry.

    ``order`` are the shards to race, in race order; ``pruned`` are the
    shards whose sketches proved them empty for this query (skipped
    entirely — no ticket token, no RaceTask, no admission charge);
    ``staged`` asks the service to race ``order`` as waves (first shard
    alone, then the rest) instead of gang-dispatching everything.
    """

    order: tuple[int, ...]
    pruned: tuple[int, ...] = ()
    staged: bool = False


class ShardRouter:
    """Per-entry routing state: one feature sketch per shard.

    Built by :class:`~repro.service.sharding.ShardedCatalog` when an
    FTV entry is loaded; :meth:`refresh` re-folds one shard's sketch
    whenever that shard's partition is warmed — at load, by a
    rebalance migration, by a dark shard's re-warm — so migrations
    keep the sketches honest.  Sketches are coded in
    ``entry.interner``, the collection's one label code space.
    """

    def __init__(
        self,
        entry: "ShardedEntry",
        num_buckets: int = DEFAULT_SKETCH_BUCKETS,
    ) -> None:
        self.entry = entry
        self.num_buckets = num_buckets
        #: shard -> sketch (absent = shard holds no graphs, or its
        #: index speaks another code space: raced, never pruned)
        self.sketches: dict[int, FeatureSketch] = {}
        #: routing-table version; bumped by rebalance reassignments and
        #: mutations so operators (and tests) can see the table moved
        self.epoch = 0

    @property
    def interner(self):
        """The collection's label code space (``entry.interner``): what
        the sketches are coded in — the router keeps none of its own."""
        return self.entry.interner

    # ------------------------------------------------------------------
    # sketch lifecycle
    # ------------------------------------------------------------------

    def refresh(self, shard: int, index: Optional[FTVIndex]) -> None:
        """(Re-)fold ``shard``'s sketch from its warm filter index.

        The fold takes the index's coded rows as they stand, so it is
        only meaningful for an index that codes every label it knows
        as the collection does — true by identity for every index the
        catalog builds, and by value for a standalone build over a
        partition that carries the collection's labels.  Any other
        index leaves the shard without a sketch, which :meth:`plan`
        races fail-closed.
        """
        self.sketches.pop(shard, None)
        if index is None or not self._same_codes(index):
            return
        self.sketches[shard] = FeatureSketch.from_postings(
            index.trie.postings.items(),
            graph_count=len(index.graphs),
            num_buckets=self.num_buckets,
        )

    def _same_codes(self, index: FTVIndex) -> bool:
        """Whether ``index`` codes every label it knows as the
        collection does."""
        ours = self.interner
        theirs = index.interner
        return theirs is ours or (
            theirs.code_of.items() <= ours.code_of.items()
        )

    def bump(self) -> int:
        """Advance the routing-table epoch (rebalance bookkeeping)."""
        self.epoch += 1
        return self.epoch

    def note_add(self, shard: int, index: FTVIndex, rows: list) -> None:
        """Patch routing state for the graph ``shard``'s filter
        ``index`` just took in, from the ``(coded path, count)``
        ``rows`` its :meth:`~repro.indexing.FTVIndex.add_graph`
        reported.

        The shard's sketch must admit the newcomer's features, or a
        stale veto would prune the only shard that can answer.
        Sketches are monotone under adds, so folding in the newcomer's
        own rows — the postings the index censused a moment ago,
        through the fold :meth:`refresh` puts a whole shard through —
        is sound without re-folding the other graphs', and costs the
        newcomer, not the shard: nothing here reads the shard's
        postings.  A partition that was *warmed* holding the newcomer
        (the first graph on an empty shard) reports no rows and has no
        sketch yet; that one is :meth:`refresh`'s to fold.
        """
        sketch = self.sketches.get(shard)
        if sketch is None or not rows or not self._same_codes(index):
            self.refresh(shard, index)
        else:
            self.sketches[shard] = sketch.with_graph(
                rows,
                graph_count=len(index.graphs),
                feature_count=len(index.trie.postings),
            )
        self.epoch += 1

    def note_remove(self) -> None:
        """Account a remove: sketches keep their (now possibly stale)
        bits — a sound over-approximation that can only route to a
        shard that would answer empty, never prune one that would
        answer.  A later :meth:`refresh` tightens the sketch."""
        self.epoch += 1

    # ------------------------------------------------------------------
    # query side
    # ------------------------------------------------------------------

    def plan(
        self,
        counts: dict,
        involved: tuple[int, ...],
        decision_only: bool = False,
    ) -> RoutePlan:
        """Route one query, given as its census ``counts`` in the
        collection's code space, over ``involved`` shards.

        Full mode races every surviving shard in ascending shard order
        (pruning only); decision mode orders survivors by descending
        sketch score and stages them as waves so the expected-first-true
        shard races alone first.  Labels the collection has never seen
        carry negative codes (see
        :meth:`~repro.indexing.features.LabelInterner.encode_vertices`).
        """
        if len(involved) <= 1:
            return RoutePlan(order=tuple(involved))
        if any(code < 0 for seq in counts for code in seq):
            # a query label the whole collection has never seen: every
            # shard's filter is provably empty; keep the lowest shard
            # as the witness race so the answer flows through the
            # normal merge/caching pipeline
            return RoutePlan(
                order=involved[:1], pruned=tuple(involved[1:])
            )
        survivors: list[tuple[int, tuple[int, int]]] = []
        pruned: list[int] = []
        for shard in involved:
            sketch = self.sketches.get(shard)
            if sketch is None:
                # no sketch = no proof: fail closed and race the
                # shard (pruning is only ever justified by a veto)
                survivors.append((shard, (0, 0)))
                continue
            score = sketch.score(counts)
            if score is None:
                pruned.append(shard)
            else:
                survivors.append((shard, score))
        if not survivors:
            return RoutePlan(
                order=(pruned[0],), pruned=tuple(pruned[1:])
            )
        if decision_only:
            survivors.sort(
                key=lambda item: (-item[1][0], -item[1][1], item[0])
            )
            order = tuple(s for s, _ in survivors)
            return RoutePlan(
                order=order,
                pruned=tuple(pruned),
                staged=len(order) > 1,
            )
        return RoutePlan(
            order=tuple(s for s, _ in survivors),
            pruned=tuple(pruned),
        )

    def as_metrics(self) -> dict:
        """Routing-table snapshot for memory/stats reports."""
        return {
            "epoch": self.epoch,
            "labels": len(self.interner),
            "sketches": {
                str(shard): sketch.as_metrics()
                for shard, sketch in sorted(self.sketches.items())
            },
        }
