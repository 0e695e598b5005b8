"""Shard-aware query routing: prune and order a sharded fan-out.

An unrouted fan-out sends every query to every shard holding graphs;
each shard then pays a race slot, admission and engine build even when
its partition holds no candidate.  The router makes the fan-out itself
cheap: the ticket's one query census — taken by the service in the
collection's label code space, the same one every shard index is built
in — probes each shard's own filter index
(:meth:`~repro.indexing.FTVIndex.probe`), the very filter the shard's
race would run, so the plan knows each shard's candidates before any
race is built.

The contract (proven in ``tests/test_routing.py`` and
``tests/test_properties.py``):

* **Pruning is exact.**  A shard is pruned exactly when its probe is
  empty; since FTV filtering is a per-graph predicate, such a shard's
  sweep has no candidate to verify and contributes ``found=False`` /
  zero embeddings / no ids to the merge — exactly nothing — so
  ``found`` / ``num_embeddings`` / ``matching_ids`` are bit-for-bit
  what the unrouted fan-out produces.  When *every* shard is empty
  (e.g. a query label unknown to the whole collection) the plan keeps
  the lowest involved shard as a witness so the service still races
  and answers through the normal pipeline.  A shard the router holds
  no index for is raced, never pruned.
* **Ordering is a heuristic, never a semantic.**  For decision-only
  queries surviving shards are ordered by descending candidate count
  (shard id breaks ties), so the expected-first-true shard races
  first; in full mode every surviving shard runs and the order is
  ascending shard id, exactly the unrouted order.
* **Everything is deterministic.**  Probes and orders are pure
  functions of (collection, assignment, query census).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..indexing import FTVIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sharding import ShardedEntry

__all__ = ["RoutePlan", "ShardRouter"]


@dataclass(frozen=True)
class RoutePlan:
    """One query's routed fan-out over a sharded entry.

    ``order`` are the shards to race, in race order; ``pruned`` are the
    shards whose probe came back empty (skipped entirely — no ticket
    token, no RaceTask, no admission charge); ``staged`` asks the
    service to give the first shard a head start over the rest
    instead of racing all of them from step 0; ``candidates`` are
    the local candidate ids of every shard the plan probed, which the
    shard's race sweeps instead of probing again.
    """

    order: tuple[int, ...]
    pruned: tuple[int, ...] = ()
    staged: bool = False
    candidates: dict = field(default_factory=dict)


class ShardRouter:
    """Per-entry routing table: one filter-index handle per shard.

    Built by :class:`~repro.service.sharding.ShardedCatalog` when an
    FTV entry is loaded; :meth:`refresh` hands it a shard's filter
    index whenever that shard's partition is warmed — at load, by a
    rebalance migration, by a dark shard's re-warm — and takes it
    back when the shard goes dark.  A mutation patches the index the
    router already holds, so routing never goes stale.
    """

    def __init__(self, entry: "ShardedEntry") -> None:
        self.entry = entry
        #: shard -> its warm filter index (absent = shard holds no
        #: graphs, is dark, or its index speaks another code space:
        #: raced, never pruned)
        self.indexes: dict[int, FTVIndex] = {}

    @property
    def interner(self):
        """The collection's label code space (``entry.interner``): what
        a query census is taken in — the router keeps none of its
        own."""
        return self.entry.interner

    def refresh(self, shard: int, index: Optional[FTVIndex]) -> None:
        """Route ``shard`` by its warm filter ``index`` (None = by
        nothing).

        A probe reads the census's codes as they stand, so only an
        index that codes every label it knows as the collection does
        is kept — true by identity for every index the catalog builds,
        and by value for a standalone build over a partition that
        carries the collection's labels.  Any other index leaves the
        shard without one, which :meth:`plan` races fail-closed.
        """
        self.indexes.pop(shard, None)
        if index is not None and self._same_codes(index):
            self.indexes[shard] = index

    def _same_codes(self, index: FTVIndex) -> bool:
        """Whether ``index`` codes every label it knows as the
        collection does."""
        ours = self.interner
        theirs = index.interner
        return theirs is ours or (
            theirs.code_of.items() <= ours.code_of.items()
        )

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
        candidate count and stages them, so the expected-first-true
        shard races alone first.
        """
        if len(involved) <= 1:
            return RoutePlan(order=tuple(involved))
        candidates: dict[int, list] = {}
        survivors: list[int] = []
        pruned: list[int] = []
        for shard in involved:
            index = self.indexes.get(shard)
            if index is None:
                # no index = no proof: fail closed and race the shard
                survivors.append(shard)
                continue
            found = candidates[shard] = index.probe(counts)
            (survivors if found else pruned).append(shard)
        if not survivors:
            return RoutePlan(
                order=(pruned[0],), pruned=tuple(pruned[1:]),
                candidates=candidates,
            )
        if decision_only:
            survivors.sort(
                key=lambda s: (-len(candidates.get(s, ())), s)
            )
        return RoutePlan(
            order=tuple(survivors),
            pruned=tuple(pruned),
            staged=decision_only and len(survivors) > 1,
            candidates=candidates,
        )

    def as_metrics(self) -> dict:
        """Routing-table snapshot for memory/stats reports."""
        return {
            "labels": len(self.interner),
            "indexed": sorted(self.indexes),
        }
