"""Tests for the isomorphism-aware query cache (iGQ-style layer)."""

import random

import pytest

from repro.caching import CachedFTVIndex, PrepareCache, QueryCache
from repro.datasets import ppi_like
from repro.graphs import LabeledGraph
from repro.indexing import GrapesIndex
from repro.matching import Budget, make_matcher
from repro.workload import extract_query


@pytest.fixture(scope="module")
def setup():
    graphs = ppi_like(num_graphs=3, avg_nodes=60, num_labels=8, seed=5)
    index = GrapesIndex(graphs, max_path_length=2, threads=1)
    return graphs, index


class TestQueryCache:
    def test_miss_then_hit(self, setup):
        graphs, _ = setup
        q = extract_query(graphs[0], 4, random.Random(1))
        cache = QueryCache()
        assert cache.lookup(q) is None
        cache.store(q, "answer")
        assert cache.lookup(q) == "answer"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_isomorphic_twin_hits(self, setup):
        graphs, _ = setup
        q = extract_query(graphs[0], 5, random.Random(2))
        cache = QueryCache()
        cache.store(q, 42)
        perm = list(q.vertices())
        random.Random(9).shuffle(perm)
        assert cache.lookup(q.permuted(perm)) == 42

    def test_non_isomorphic_does_not_hit(self, setup):
        graphs, _ = setup
        q1 = extract_query(graphs[0], 4, random.Random(3))
        q2 = extract_query(graphs[1], 5, random.Random(4))
        cache = QueryCache()
        cache.store(q1, "a")
        assert cache.lookup(q2) is None

    def test_store_refreshes_value(self, setup):
        graphs, _ = setup
        q = extract_query(graphs[0], 4, random.Random(5))
        cache = QueryCache()
        cache.store(q, 1)
        cache.store(q, 2)
        assert cache.lookup(q) == 2
        assert len(cache) == 1

    def test_lru_eviction(self, setup):
        graphs, _ = setup
        cache = QueryCache(capacity=2)
        queries = [
            extract_query(graphs[0], 3 + k, random.Random(10 + k))
            for k in range(3)
        ]
        for i, q in enumerate(queries):
            cache.store(q, i)
        assert len(cache) <= 2
        assert cache.stats.evictions >= 1
        # the oldest entry is gone
        assert cache.lookup(queries[0]) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)


class TestCachedFTVIndex:
    def test_repeat_query_served_from_cache(self, setup):
        graphs, index = setup
        cached = CachedFTVIndex(index)
        q = extract_query(graphs[1], 5, random.Random(6))
        budget = Budget(max_steps=10**6)
        first = cached.query(q, budget)
        assert cached.cache.stats.misses == 1
        # an isomorphic twin: answered without touching the index
        perm = list(q.vertices())
        random.Random(7).shuffle(perm)
        second = cached.query(q.permuted(perm), budget)
        assert cached.cache.stats.hits == 1
        assert second.matching_ids == first.matching_ids
        assert second.candidate_ids == first.candidate_ids

    def test_killed_results_not_cached(self, setup):
        graphs, index = setup
        cached = CachedFTVIndex(index)
        q = extract_query(graphs[0], 6, random.Random(8))
        cached.query(q, Budget(max_steps=2))
        # nothing cached: a re-query is a miss again
        cached.query(q, Budget(max_steps=2))
        assert cached.cache.stats.hits == 0


def small_graph():
    g = LabeledGraph(3, ["A", "B", "A"])
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


class TestPrepareCache:
    def test_repeated_prepare_is_memoized(self):
        g = small_graph()
        m = make_matcher("GQL")
        assert m.prepare(g) is m.prepare(g)
        # a different matcher config sharing the index shape also hits
        assert make_matcher("GQL").prepare(g) is m.prepare(g)

    def test_distinct_graphs_distinct_indexes(self):
        m = make_matcher("VF2")
        assert m.prepare(small_graph()) is not m.prepare(small_graph())

    def test_cache_false_builds_fresh(self):
        g = small_graph()
        m = make_matcher("SPA")
        assert m.prepare(g) is not m.prepare(g, cache=False)

    def test_mutated_graph_reindexed(self):
        g = LabeledGraph(4, ["A", "B", "A", "B"])
        g.add_edge(0, 1)
        m = make_matcher("QSI")
        stale = m.prepare(g)
        g.add_edge(2, 3)
        fresh = m.prepare(g)
        assert fresh is not stale
        assert fresh.degrees == (1, 1, 1, 1)

    def test_spa_radius_in_key(self):
        from repro.matching.spath import SPathMatcher

        g = small_graph()
        assert (
            SPathMatcher(radius=2).prepare(g)
            is not SPathMatcher(radius=3).prepare(g)
        )

    def test_same_named_matchers_of_two_modules_do_not_share(self):
        """The key names the module: a class that reuses a matcher's
        name elsewhere (a test oracle, a plug-in) and builds its own
        index type gets that type, and the original keeps its own."""
        from repro.matching import (
            GraphIndex,
            GraphQLIndex,
            GraphQLMatcher,
            SPathIndex,
            SPathMatcher,
        )

        class ElsewhereIndex(GraphIndex):
            pass

        def namesake(base):
            """``base``'s name and qualname, as if at the top level of
            another module."""
            def _build_index(self, graph):
                return ElsewhereIndex(graph)

            _build_index.__module__ = "elsewhere"
            _build_index.__qualname__ = f"{base.__name__}._build_index"
            return type(
                base.__name__,
                (base,),
                {"__module__": "elsewhere", "_build_index": _build_index},
            )

        g = small_graph()
        for base, own in (
            (GraphQLMatcher, GraphQLIndex),
            (SPathMatcher, SPathIndex),
        ):
            assert isinstance(namesake(base)().prepare(g), ElsewhereIndex)
            assert isinstance(base().prepare(g), own)
            assert base().run(g, g).found

    def test_stats_and_clear(self):
        cache = PrepareCache()
        g = small_graph()
        built = []
        cache.get(g, ("k",), lambda: built.append(1) or "idx")
        cache.get(g, ("k",), lambda: built.append(1) or "idx")
        assert len(built) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        cache.clear()
        cache.get(g, ("k",), lambda: built.append(1) or "idx")
        assert len(built) == 2

    def test_entries_and_eviction_counters(self):
        cache = PrepareCache()
        g = small_graph()
        h = small_graph()
        cache.get(g, ("k",), lambda: "idx")
        cache.get(h, ("k",), lambda: "idx")
        cache.get(g, ("k2",), lambda: "idx2")
        assert cache.entries == 3
        cache.clear()
        assert cache.entries == 0
        assert cache.stats.evictions == 3
        # rebuilt after clear: a fresh miss, counters keep history
        cache.get(g, ("k",), lambda: "idx")
        assert cache.stats.misses == 4
        assert cache.entries == 1

    def test_as_metrics(self):
        cache = PrepareCache()
        g = small_graph()
        cache.get(g, ("k",), lambda: "idx")
        cache.get(g, ("k",), lambda: "idx")
        m = cache.stats.as_metrics()
        assert m == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "lookups": 2,
            "hit_rate": 0.5,
        }
        prefixed = cache.stats.as_metrics(prefix="prepare_")
        assert prefixed["prepare_hits"] == 1
