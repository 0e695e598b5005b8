"""Tests for the dataset catalog and the result cache."""

import pytest

from repro.service import DatasetCatalog, ResultCache, ShardedCatalog
from repro.service.cache import CachedResult


def one_shard():
    return ShardedCatalog(num_shards=1)


class TestCatalog:
    def test_load_nfv(self):
        cat = one_shard()
        cat.load("yeast", scale="tiny", algorithms=("GQL",))
        entry = cat.shard_entry("yeast", 0)
        assert entry.kind == "nfv"
        assert entry.graphs[0].order > 0
        assert entry.psi is not None
        assert cat.datasets() == ["yeast"]
        assert list(cat.partitions[0]) == ["yeast"]

    def test_load_is_idempotent(self):
        cat = one_shard()
        a = cat.load("yeast", scale="tiny")
        sub = cat.shard_entry("yeast", 0)
        b = cat.load("yeast", scale="tiny")
        assert a is b
        assert cat.shard_entry("yeast", 0) is sub

    def test_prepared_indexes_warm(self):
        cat = one_shard()
        cat.load("yeast", scale="tiny", algorithms=("GQL", "SPA"))
        entry = cat.shard_entry("yeast", 0)
        # prepared() must return the already-built index, not rebuild
        assert entry.psi.prepared("GQL") is entry.psi.prepared("GQL")
        memo = entry.graphs[0]._index_memo
        assert memo  # warmed at load time

    def test_load_ftv(self):
        cat = one_shard()
        cat.load("ppi", scale="tiny")
        entry = cat.shard_entry("ppi", 0)
        assert entry.kind == "ftv"
        assert entry.ftv_index is not None
        assert len(entry.graphs) > 1

    def test_view_loads_the_one_shard_entry(self):
        view = DatasetCatalog()
        entry = view.load("ppi", scale="tiny")
        assert entry is view.sharded.shard_entry("ppi", 0)
        assert view.load("ppi", scale="tiny") is entry

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            one_shard().load("nope")
        with pytest.raises(ValueError, match="unknown dataset"):
            DatasetCatalog().load("nope")

    def test_get_unloaded(self):
        with pytest.raises(KeyError, match="not loaded"):
            one_shard().get("yeast")

    def test_mutation_detected(self):
        cat = one_shard()
        cat.load("yeast", scale="tiny")
        graph = cat.shard_entry("yeast", 0).graphs[0]
        graph.add_edge(0, graph.order - 1)
        with pytest.raises(RuntimeError, match="mutated"):
            cat.shard_entry("yeast", 0)

    def test_memory_report(self):
        cat = one_shard()
        cat.load("yeast", scale="tiny", algorithms=("GQL",))
        report = cat.memory_report()
        assert report["total_bytes"] > 0
        row = report["shards"][0]["datasets"]["yeast"]
        assert row["vertices"] > 0
        assert row["graph_bytes"] > 0
        assert row["prepared_indexes"] > 0


def _result(steps=10, found=True):
    return CachedResult(
        found=found,
        num_embeddings=1,
        steps=steps,
        winner=None,
        per_variant_steps=(),
    )


class TestResultCache:
    def test_lookup_miss_then_hit(self, small_store):
        from repro.workload import extract_query
        import random

        cache = ResultCache(capacity=4)
        q = extract_query(small_store, 5, random.Random(1))
        key = cache.key_for(q, ("ctx",))
        assert cache.lookup(key) is None
        cache.store(key, _result())
        assert cache.lookup(key).steps == 10
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_isomorphic_twin_hits(self, small_store):
        from repro.workload import extract_query, permuted_instance
        import random

        cache = ResultCache()
        q = extract_query(small_store, 6, random.Random(2))
        twin = permuted_instance(q, random.Random(3))
        cache.store(cache.key_for(q, ("ctx",)), _result(steps=77))
        hit = cache.lookup(cache.key_for(twin, ("ctx",)))
        assert hit is not None and hit.steps == 77

    def test_context_separates(self, small_store):
        from repro.workload import extract_query
        import random

        cache = ResultCache()
        q = extract_query(small_store, 5, random.Random(4))
        cache.store(cache.key_for(q, ("a",)), _result())
        assert cache.lookup(cache.key_for(q, ("b",))) is None

    def test_lru_eviction_counts(self):
        from repro.graphs import LabeledGraph

        cache = ResultCache(capacity=2)
        for i in range(3):
            g = LabeledGraph(2, [f"L{i}", f"L{i}"])
            g.add_edge(0, 1)
            cache.store(cache.key_for(g, ("ctx",)), _result(steps=i))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # the first-inserted entry is gone
        g0 = LabeledGraph(2, ["L0", "L0"])
        g0.add_edge(0, 1)
        assert cache.lookup(cache.key_for(g0, ("ctx",))) is None

    def test_uncacheable_counted(self):
        from repro.graphs import LabeledGraph
        from repro.service import canonical_query_key  # noqa: F401

        cycle = LabeledGraph(8, ["A"] * 8)
        for i in range(8):
            cycle.add_edge(i, (i + 1) % 8)
        cache = ResultCache()
        # monkey-free: shrink the canon budget through key_for's canon
        import repro.service.cache as cache_mod

        orig = cache_mod.canonical_query_key
        cache_mod.canonical_query_key = (
            lambda g: orig(g, max_branches=0)
        )
        try:
            assert cache.key_for(cycle, ("ctx",)) is None
        finally:
            cache_mod.canonical_query_key = orig
        assert cache.uncacheable == 1
        assert "uncacheable" in cache.as_metrics()


class TestCatalogReload:
    def test_conflicting_reload_raises(self):
        cat = one_shard()
        cat.load("yeast", scale="tiny")
        with pytest.raises(ValueError, match="already loaded"):
            cat.load("yeast", scale="default")
        with pytest.raises(ValueError, match="already loaded"):
            cat.load("yeast", scale="tiny", algorithms=("GQL",))
        # a fresh catalog takes the other configuration
        cat = one_shard()
        cat.load("yeast", scale="tiny", algorithms=("GQL",))
        assert cat.get("yeast").load_config == ("tiny", ("GQL",))


class TestWarmUpWork:
    """Counts, not seconds: which of the two expensive walks — the
    stored-graph path census and the ``approx_deep_bytes`` accounting
    walk — each catalog operation performs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every census / accounting call made anywhere in ``src``,
        recorded by what it walked."""
        from repro.indexing import base, grapes
        from repro.service import catalog, planner

        calls = {"census": [], "bytes": []}
        census = grapes.coded_path_census
        walk = catalog.approx_deep_bytes

        def counted_census(graph, *args, **kwargs):
            calls["census"].append(graph)
            return census(graph, *args, **kwargs)

        def counted_walk(obj, *args, **kwargs):
            calls["bytes"].append(obj)
            return walk(obj, *args, **kwargs)

        for module in (base, grapes, planner):
            monkeypatch.setattr(
                module, "coded_path_census", counted_census
            )
        monkeypatch.setattr(catalog, "approx_deep_bytes", counted_walk)
        calls["uncounted_walk"] = walk
        return calls

    @staticmethod
    def _partitions(service):
        return [
            partition["ppi"]
            for partition in service.catalog.partitions
            if "ppi" in partition
        ]

    def _first_report_is_the_eager_walk(self, service, calls):
        for entry in self._partitions(service):
            report = entry.memory_report()
            walk = calls["uncounted_walk"]
            assert report["graph_bytes"] == sum(
                walk(g.kernel()) for g in entry.graphs
            )
            assert report["ftv_index_bytes"] == walk(entry.ftv_index)
            # and it is memoised: a second read walks no frozen part
            walked = len(calls["bytes"])
            assert entry.memory_report() == report
            assert not any(
                obj is entry.ftv_index for obj in calls["bytes"][walked:]
            )
        calls["bytes"].clear()

    def test_no_accounting_and_one_census_per_indexed_graph(
        self, calls, tmp_path
    ):
        from repro.service import Service
        from repro.store import StoreWriter

        def censused():
            done, calls["census"][:] = list(calls["census"]), []
            return done

        service = Service(shards=2, routing=True)
        service.load_dataset("ppi", scale="tiny")
        graphs = list(service.catalog.get("ppi").graphs)
        assert sorted(map(id, censused())) == sorted(map(id, graphs))
        assert calls["bytes"] == []
        self._first_report_is_the_eager_walk(service, calls)

        newcomer = graphs[0].permuted(
            list(reversed(range(graphs[0].order)))
        )
        added = service.add_graph("ppi", newcomer)
        service.pump()
        assert added.applied
        assert censused() == [newcomer]
        assert calls["bytes"] == []
        self._first_report_is_the_eager_walk(service, calls)

        removed = service.remove_graph("ppi", 1)
        service.pump()
        assert removed.applied
        assert censused() == []
        assert calls["bytes"] == []
        self._first_report_is_the_eager_walk(service, calls)

        StoreWriter(str(tmp_path)).write_catalog(service.catalog)
        booted = Service(shards=2, routing=True, store=str(tmp_path))
        booted.load_dataset("ppi", scale="tiny")
        assert booted.store_metrics()["rebuilds"] == 0
        assert censused() == []
        assert calls["bytes"] == []
        self._first_report_is_the_eager_walk(booted, calls)


class TestProbeTimeTables:
    """Threshold tables are a probe-time memo: what builds, restores
    or mutates a partition seals no path and counts no trie node; a
    query seals the paths its probe asked about."""

    @pytest.fixture
    def node_counts(self, monkeypatch):
        """Every ``PathTrie.node_count`` read, by the trie read."""
        from repro.indexing.trie import PathTrie

        counted = []
        count = PathTrie.node_count.fget

        def counting(trie):
            counted.append(trie)
            return count(trie)

        monkeypatch.setattr(PathTrie, "node_count", property(counting))
        return counted

    @staticmethod
    def _tables(catalog):
        return [
            len(partition["ppi"].ftv_index.trie.tables)
            for partition in catalog.partitions
        ]

    def test_load_boot_and_acks_seal_nothing(self, node_counts, tmp_path):
        from repro.store import StoreWriter

        cat = ShardedCatalog(num_shards=2)
        cat.load("ppi", scale="tiny")
        assert self._tables(cat) == [0, 0]
        StoreWriter(str(tmp_path)).write_catalog(cat)
        booted = ShardedCatalog(num_shards=2, store=str(tmp_path))
        booted.load("ppi", scale="tiny")
        assert booted.store.as_metrics()["restores"] > 0
        assert booted.store.as_metrics()["rebuilds"] == 0
        assert self._tables(booted) == [0, 0]
        graphs = cat.get("ppi").graphs
        cat.add_graph("ppi", graphs[0].permuted(
            list(reversed(range(graphs[0].order)))
        ), shard=1)
        cat.remove_graph("ppi", 1)
        assert self._tables(cat) == [0, 0]
        assert node_counts == []
        # the first report counts each partition's nodes, once
        report = cat.memory_report()
        cat.memory_report()
        assert len(node_counts) == 2
        for shard, partition in enumerate(cat.partitions):
            warm = report["shards"][shard]["datasets"]["ppi"]["ftv_warm"]
            trie = partition["ppi"].ftv_index.trie
            assert warm["sealed_paths"] == 0
            assert warm["paths"] == len(trie.postings) > 0

    def test_a_served_query_seals_the_paths_its_probes_asked(self):
        """On each shard, the census paths the probe reached before its
        fold emptied — all of them where the query has candidates —
        and nothing else."""
        from repro.service import Service
        from repro.workload import generate_workload

        svc = Service(shards=2, routing=True)
        svc.load_dataset("ppi", scale="tiny")
        entries = [partition["ppi"] for partition in svc.catalog.partitions]
        assert [len(e.ftv_index.trie.tables) for e in entries] == [0, 0]
        graphs = svc.catalog.get("ppi").graphs
        query = generate_workload(graphs, 1, 4, seed=5)[0].graph
        ticket = svc.submit("ppi", query)
        svc.run_until_idle()
        assert ticket.done
        full = 0
        for entry in entries:
            index = entry.ftv_index
            postings = index.trie.postings
            asked = set()
            for seq, needed in index.coded_query_census(query).counts.items():
                if seq not in postings:
                    break
                asked.add(seq)
                if max(postings[seq].values()) < needed:
                    break
            else:
                full += 1
            assert set(index.trie.tables) == asked
        assert full >= 1  # the query's source shard probed every path
