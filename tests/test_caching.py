"""Tests for the prepared-graph memo (``repro.caching.PrepareCache``)."""

from repro.caching import PrepareCache
from repro.graphs import LabeledGraph
from repro.matching import make_matcher


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

    def test_eviction_counters(self):
        cache = PrepareCache()
        g = small_graph()
        h = small_graph()
        cache.get(g, ("k",), lambda: "idx")
        cache.get(h, ("k",), lambda: "idx")
        cache.get(g, ("k2",), lambda: "idx2")
        cache.clear()
        assert cache.stats.evictions == 3
        # rebuilt after clear: a fresh miss, counters keep history
        cache.get(g, ("k",), lambda: "idx")
        assert cache.stats.misses == 4

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
