"""The prepared-graph memo and the hit/miss counters every cache shares.

``Matcher.prepare`` output and query censuses are functions of one
graph object; :class:`PrepareCache` memoizes them *on that object*, so
a memo lives exactly as long as its graph, and :data:`prepare_cache`'s
counts (``stats()["prepare_cache"]``) are matcher-index and census
reuse.  :class:`CacheStats` is the counter block it, and the service's
result cache (:mod:`repro.service.cache`), report through.

(Answers to repeated queries *up to isomorphism* — the iGQ idea, paper
ref [19] — are cached by :class:`repro.service.cache.ResultCache` on
:func:`repro.service.canon.canonical_query_key`, which is computed
once per submit and not memoized.)
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass

from .graphs import LabeledGraph

__all__ = [
    "CacheStats",
    "PrepareCache",
    "prepare_cache",
]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

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
        else:
            self.stats.hits += 1
        return hit

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


#: The process-wide instance :meth:`Matcher.prepare` routes through.
prepare_cache = PrepareCache()
