"""Result cache keyed by canonical query forms.

What the paper recomputes per query, a service caches:

* the **result** — the decision answer and embedding count, which are
  genuinely isomorphism-invariant, so any permuted re-issue of a motif
  is answered without running a single engine step;
* the **bill** — which variant won and what the race cost.
  These are *historical*, not invariant: the paper's whole subject is
  that isomorphic instances can have wildly different step counts and
  winners.  A cache hit reports the original instance's race verbatim
  (deterministic and clearly labelled ``from_cache``); do not build
  per-instance accounting on a cached bill.

Keys are :func:`repro.service.canon.canonical_query_key` outputs plus
the execution context (dataset, variant set, budget, embedding caps) —
a cached entry is only reused for an identical configuration, because
budgets change kill behaviour and variant sets change winners.  Queries
whose canonicalisation exceeds its branch budget are simply not cached.

Only *completed* (non-killed) races are stored: a killed race's answer
depends on the budget, not just the query class.

Counters live in :class:`repro.caching.CacheStats` and surface through
``Service.stats`` next to the PrepareCache numbers, so cache efficacy
is a first-class service metric.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..caching import CacheStats
from ..graphs import LabeledGraph
from .canon import canonical_query_key

__all__ = ["CachedResult", "ResultCache"]


@dataclass(frozen=True)
class CachedResult:
    """One finished race, as stored for isomorphic re-issues.

    ``found`` / ``num_embeddings`` / ``matching_ids`` transfer exactly
    to any isomorphic instance; ``steps`` / ``winner`` /
    ``per_variant_steps`` are the original instance's historical race
    (see module docstring).
    """

    found: bool
    num_embeddings: int
    steps: int
    winner: Optional[object]  # winning Variant (or None)
    per_variant_steps: tuple  # ((variant, steps), ...) in race order
    matching_ids: tuple = ()  # FTV decision answers (iso-invariant)


class ResultCache:
    """LRU over (context, canonical form) with hit/miss/eviction stats."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        #: queries whose canonicalisation hit the branch budget
        self.uncacheable = 0
        self._entries: "OrderedDict[tuple, CachedResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def canon_for(self, query: LabeledGraph) -> Optional[tuple]:
        """The query's canonical form (None when uncacheable)."""
        canon = canonical_query_key(query)
        if canon is None:
            self.uncacheable += 1
        return canon

    def key_for(
        self, query: LabeledGraph, context: tuple
    ) -> Optional[tuple]:
        """The full cache key, or None when the query is uncacheable."""
        canon = self.canon_for(query)
        if canon is None:
            return None
        return (context, canon)

    def lookup(self, key: Optional[tuple]) -> Optional[CachedResult]:
        """Cached result for ``key`` (counts a hit or miss)."""
        if key is None:
            return None
        hit = self._entries.get(key)
        if hit is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return hit

    def store(self, key: Optional[tuple], result: CachedResult) -> None:
        """Insert (or refresh) ``result`` under ``key``; evict LRU."""
        if key is None:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def as_metrics(self) -> dict:
        """Counter snapshot for service stats / bench JSON."""
        out = self.stats.as_metrics()
        out["entries"] = len(self._entries)
        out["capacity"] = self.capacity
        out["uncacheable"] = self.uncacheable
        return out
