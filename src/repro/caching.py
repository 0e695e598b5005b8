"""Query-result caching up to isomorphism (the iGQ idea, paper ref [19]).

The paper's related work notes that "iGQ is a recent approach that
employs caching on top of any proposed FTV method to improve
performance" — by the same research group, and orthogonal to the
Ψ-framework.  This module provides that layer: a cache of previously
answered decision queries, keyed *up to isomorphism*.

Isomorphic repeats are common in real workloads (and are this paper's
whole subject!): the same motif arrives with different node IDs.  The
cache keys entries by the cheap invariant
:func:`repro.graphs.isomorphism.isomorphism_invariant_key` and resolves
collisions with the exact checker, so a hit is *sound* — any two
isomorphic queries have identical answer sets.

Usage::

    cache = QueryCache(capacity=256)
    cached = CachedFTVIndex(grapes_index, cache)
    result = cached.query(query, budget)   # repeat motifs are free
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Optional

from .graphs import LabeledGraph
from .graphs.isomorphism import are_isomorphic, isomorphism_invariant_key
from .indexing import FTVIndex, FTVQueryResult
from .matching import Budget

__all__ = [
    "QueryCache",
    "CachedFTVIndex",
    "CacheStats",
    "PrepareCache",
    "prepare_cache",
]


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`QueryCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_metrics(self, prefix: str = "") -> dict:
        """Flat counter dict for metrics/stats surfaces (JSON-ready)."""
        return {
            f"{prefix}hits": self.hits,
            f"{prefix}misses": self.misses,
            f"{prefix}evictions": self.evictions,
            f"{prefix}lookups": self.lookups,
            f"{prefix}hit_rate": self.hit_rate,
        }


class QueryCache:
    """LRU cache of query answers, keyed up to isomorphism.

    Values are opaque to the cache (the FTV wrapper stores the list of
    matching graph IDs).  Each invariant-key bucket holds the distinct
    non-isomorphic queries that share the invariant; exact isomorphism
    is verified on lookup, so false hits are impossible.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        # invariant key -> list of (query graph, value); LRU over keys
        self._buckets: OrderedDict[tuple, list[tuple[LabeledGraph, object]]]
        self._buckets = OrderedDict()
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    def lookup(self, query: LabeledGraph) -> Optional[object]:
        """The cached value for ``query`` (or an isomorphic twin)."""
        key = isomorphism_invariant_key(query)
        bucket = self._buckets.get(key)
        if bucket is not None:
            for stored, value in bucket:
                if are_isomorphic(stored, query):
                    self._buckets.move_to_end(key)
                    self.stats.hits += 1
                    return value
        self.stats.misses += 1
        return None

    def store(self, query: LabeledGraph, value: object) -> None:
        """Insert (or refresh) the answer for ``query``."""
        key = isomorphism_invariant_key(query)
        bucket = self._buckets.setdefault(key, [])
        for i, (stored, _) in enumerate(bucket):
            if are_isomorphic(stored, query):
                bucket[i] = (stored, value)
                self._buckets.move_to_end(key)
                return
        bucket.append((query, value))
        self._entries += 1
        self._buckets.move_to_end(key)
        while self._entries > self.capacity:
            _, evicted = self._buckets.popitem(last=False)
            self._entries -= len(evicted)
            self.stats.evictions += len(evicted)


class PrepareCache:
    """Memo of per-stored-graph matcher indexes.

    ``Matcher.prepare`` is un-budgeted but far from free (GraphQL
    signatures, sPath distance structures); before this cache, every
    race re-indexed the stored graph per variant.  Entries are keyed by
    ``Matcher.prepare_key()`` and stored *on the graph itself*
    (``LabeledGraph._index_memo``), so the memo lives exactly as long
    as the graph — dropping the graph drops its indexes (a global
    graph -> index map would pin both forever, since an index strongly
    references its graph).  The cache object only tracks stats and the
    set of graphs touched (weakly, for :meth:`clear`).

    A graph mutated after indexing is transparently re-indexed:
    ``add_edge`` resets the memo.
    """

    def __init__(self) -> None:
        self._graphs: "weakref.WeakSet[LabeledGraph]" = weakref.WeakSet()
        # namespace token: entries on the graph-side memo are keyed by
        # (token, key), so independent PrepareCache instances never see
        # (or clear) each other's entries
        self._ns = object()
        self.stats = CacheStats()
        self._entries = 0

    def get(
        self,
        graph: LabeledGraph,
        key: tuple,
        builder: Callable[[], object],
    ):
        """The memoized ``builder()`` result for (``graph``, ``key``)."""
        indexes = graph._index_memo
        if indexes is None:
            indexes = graph._index_memo = {}
        self._graphs.add(graph)
        full_key = (self._ns, key)
        hit = indexes.get(full_key)
        if hit is None:
            self.stats.misses += 1
            hit = indexes[full_key] = builder()
            self._entries += 1
        else:
            self.stats.hits += 1
        return hit

    @property
    def entries(self) -> int:
        """Number of live memoized indexes built through this cache.

        Graphs dropped by the garbage collector take their memo entries
        with them (the whole point of graph-side storage), so this is an
        upper bound that :meth:`clear` resets exactly.
        """
        return self._entries

    def evict_graph(self, graph: LabeledGraph) -> int:
        """Drop one graph's memoized indexes, counting the evictions.

        The catalogs' ``remove_graph`` uses this: leaving a removed
        graph to the garbage collector would drop the entries silently,
        while an explicit evict shows up in the cache-efficacy counters
        operators watch.  Returns the number of entries dropped.
        """
        dropped = 0
        indexes = graph._index_memo
        if indexes:
            ns = self._ns
            for full_key in [k for k in indexes if k[0] is ns]:
                del indexes[full_key]
                dropped += 1
        self.stats.evictions += dropped
        self._entries = max(0, self._entries - dropped)
        self._graphs.discard(graph)
        return dropped

    def clear(self) -> None:
        """Drop every index this cache memoized (testing / memory hook).

        Dropped entries are counted as evictions in :attr:`stats`, so
        memory-pressure hooks that call this show up in cache-efficacy
        metrics rather than silently resetting the world.
        """
        ns = self._ns
        for graph in list(self._graphs):
            indexes = graph._index_memo
            if indexes:
                for full_key in [k for k in indexes if k[0] is ns]:
                    del indexes[full_key]
                    self.stats.evictions += 1
        self._graphs.clear()
        self._entries = 0


#: The process-wide instance :meth:`Matcher.prepare` routes through.
prepare_cache = PrepareCache()


@dataclass
class CachedFTVIndex:
    """An FTV index with an isomorphism-aware answer cache in front.

    The decision answer of a subgraph query depends only on the query's
    isomorphism class, so cached answers transfer exactly.  Budgets do
    affect completeness (a killed pair may hide a match), so only
    results from *fully completed* verifications are cached.
    """

    index: FTVIndex
    cache: QueryCache = field(default_factory=QueryCache)

    def query(
        self,
        query: LabeledGraph,
        budget: Optional[Budget] = None,
    ) -> FTVQueryResult:
        """Answer a decision query, consulting the cache first."""
        cached = self.cache.lookup(query)
        if cached is not None:
            result = FTVQueryResult(candidate_ids=list(cached[0]))
            result.reports = list(cached[1])
            return result
        result = self.index.query(query, budget)
        if not any(r.killed for r in result.reports):
            self.cache.store(
                query,
                (tuple(result.candidate_ids), tuple(result.reports)),
            )
        return result
