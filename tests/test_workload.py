"""Tests for the query workload generator (paper §3.4)."""

import random

import pytest

from repro.graphs import GraphError, LabeledGraph, gnm_graph, uniform_labels
from repro.matching import VF2Matcher
from repro.workload import extract_query, generate_workload


def _store(seed=1, n=30, m=60):
    rng = random.Random(seed)
    return gnm_graph(n, m, uniform_labels(n, ["A", "B", "C"], rng), rng)


class TestExtractQuery:
    def test_requested_size(self):
        g = _store()
        q = extract_query(g, 7, random.Random(2))
        assert q.size == 7

    def test_connected(self):
        g = _store()
        for seed in range(8):
            q = extract_query(g, 6, random.Random(seed))
            assert q.is_connected()

    def test_query_always_satisfiable(self):
        """Queries are subgraphs of the store: an embedding must exist
        (this is what makes killed queries true stragglers)."""
        g = _store()
        for seed in range(6):
            q = extract_query(g, 5, random.Random(seed))
            out = VF2Matcher().decide(g, q)
            assert out.found

    def test_deterministic(self):
        g = _store()
        a = extract_query(g, 6, random.Random(5))
        b = extract_query(g, 6, random.Random(5))
        assert a.same_labeled_structure(b)

    def test_zero_edges_rejected(self):
        g = _store()
        with pytest.raises(GraphError):
            extract_query(g, 0, random.Random(1))

    def test_oversized_rejected(self):
        g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        with pytest.raises(GraphError):
            extract_query(g, 5, random.Random(1))

    def test_small_component_exhausted(self):
        g = LabeledGraph(4, ["A", "B", "C", "D"])
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        # any seed vertex sits in a 1-edge component; asking for 2 edges
        # must raise
        with pytest.raises(GraphError):
            extract_query(g, 2, random.Random(0))


class TestGenerateWorkload:
    def test_counts_and_sizes(self):
        g = _store()
        queries = generate_workload([g], 10, 5, seed=3)
        assert len(queries) == 10
        assert all(q.graph.size == 5 for q in queries)
        assert all(q.num_edges == 5 for q in queries)

    def test_multi_graph_sources_recorded(self):
        graphs = [_store(seed=s) for s in range(3)]
        queries = generate_workload(graphs, 12, 4, seed=9)
        sources = {q.source_graph_id for q in queries}
        assert sources <= {0, 1, 2}
        assert len(sources) > 1

    def test_deterministic(self):
        g = _store()
        a = generate_workload([g], 5, 4, seed=11)
        b = generate_workload([g], 5, 4, seed=11)
        for x, y in zip(a, b):
            assert x.graph.same_labeled_structure(y.graph)

    def test_empty_dataset_rejected(self):
        with pytest.raises(GraphError):
            generate_workload([], 5, 4)

    def test_impossible_size_raises(self):
        g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        with pytest.raises(GraphError):
            generate_workload([g], 2, 4, seed=1)

    def test_query_names_unique(self):
        g = _store()
        queries = generate_workload([g], 8, 4, seed=13)
        names = {q.name for q in queries}
        assert len(names) == 8


class TestTenantMixes:
    def _graphs(self):
        return [_store(seed=3, n=40, m=90)]

    def _mix(self, **kw):
        from repro.workload import TenantMix

        defaults = dict(
            tenant="t0", sizes=(4, 6), count=10, repeat_fraction=0.4
        )
        defaults.update(kw)
        return TenantMix(**defaults)

    def test_stream_deterministic(self):
        from repro.workload import generate_tenant_stream

        graphs = self._graphs()
        a = generate_tenant_stream(graphs, self._mix(), seed=5)
        b = generate_tenant_stream(graphs, self._mix(), seed=5)
        assert len(a) == len(b) == 10
        for x, y in zip(a, b):
            assert x.tenant == y.tenant
            assert x.is_repeat == y.is_repeat
            assert x.query.graph.same_labeled_structure(y.query.graph)

    def test_sizes_stratified(self):
        from repro.workload import generate_tenant_stream

        stream = generate_tenant_stream(
            self._graphs(), self._mix(repeat_fraction=0.0), seed=7
        )
        sizes = {mq.query.graph.size for mq in stream}
        assert sizes == {4, 6}

    def test_repeats_are_isomorphic_copies(self):
        from repro.graphs.isomorphism import are_isomorphic
        from repro.workload import generate_tenant_stream

        stream = generate_tenant_stream(
            self._graphs(), self._mix(count=20), seed=9
        )
        repeats = [mq for mq in stream if mq.is_repeat]
        assert repeats  # 40% repeat rate over 20 queries
        for rep in repeats:
            twins = [
                mq
                for mq in stream
                if not mq.is_repeat
                and mq.query.graph.size == rep.query.graph.size
                and are_isomorphic(mq.query.graph, rep.query.graph)
            ]
            assert twins, f"repeat {rep.query.name} has no original"

    def test_default_mixes_heterogeneous(self):
        from repro.workload import default_tenant_mixes

        mixes = default_tenant_mixes(3, 5, sizes=(4, 6, 8))
        assert len(mixes) == 3
        assert {m.tenant for m in mixes} == {
            "tenant0", "tenant1", "tenant2"
        }
        # staggered strata: tenants start at different sizes
        assert mixes[0].sizes[0] != mixes[1].sizes[0]

    def test_mix_validation(self):
        from repro.workload import TenantMix

        with pytest.raises(GraphError):
            TenantMix(tenant="t", sizes=(), count=1)
        with pytest.raises(GraphError):
            TenantMix(tenant="t", sizes=(4,), count=0)
        with pytest.raises(GraphError):
            TenantMix(
                tenant="t", sizes=(4,), count=1, repeat_fraction=1.0
            )
        with pytest.raises(GraphError):
            TenantMix(tenant="t", sizes=(4,), count=1, weight=0.0)

    def test_permuted_instance_isomorphic(self):
        import random as _random

        from repro.graphs.isomorphism import are_isomorphic
        from repro.workload import extract_query, permuted_instance

        g = self._graphs()[0]
        q = extract_query(g, 6, _random.Random(3))
        twin = permuted_instance(q, _random.Random(4))
        assert are_isomorphic(q, twin)

    def test_duplicate_sizes_supported(self):
        from repro.workload import generate_tenant_stream

        stream = generate_tenant_stream(
            self._graphs(),
            self._mix(sizes=(4, 4, 6), count=9, repeat_fraction=0.0),
            seed=2,
        )
        assert len(stream) == 9
        sizes = [mq.query.graph.size for mq in stream]
        assert sizes.count(4) == 6 and sizes.count(6) == 3
