"""Tests for canonical query forms (the result-cache key)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.graphs.isomorphism import are_isomorphic
from repro.service import Service
from repro.service.canon import canonical_query_key
from repro.workload import extract_query, permuted_instance


def _random_graph(seed, n=10, m=18, labels=("A", "B", "C")):
    rng = random.Random(seed)
    return gnm_graph(n, m, uniform_labels(n, list(labels), rng), rng)


class TestInvariance:
    def test_identity(self):
        g = _random_graph(1)
        assert canonical_query_key(g) == canonical_query_key(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_permutation_invariance(self, seed):
        g = _random_graph(seed)
        rng = random.Random(seed + 100)
        twin = permuted_instance(g, rng)
        assert are_isomorphic(g, twin)
        assert canonical_query_key(g) == canonical_query_key(twin)

    def test_many_permutations_one_key(self):
        g = _random_graph(3, n=8, m=12)
        rng = random.Random(9)
        keys = {
            canonical_query_key(permuted_instance(g, rng))
            for _ in range(12)
        }
        assert len(keys) == 1

    def test_workload_queries_canonicalize(self, small_store):
        # the actual query shapes the service will see
        for seed in range(6):
            q = extract_query(small_store, 8, random.Random(seed))
            rng = random.Random(seed + 50)
            twin = permuted_instance(q, rng)
            key = canonical_query_key(q)
            assert key is not None
            assert key == canonical_query_key(twin)


class TestDiscrimination:
    def test_different_structure(self):
        path = LabeledGraph(3, ["A", "A", "A"])
        path.add_edge(0, 1)
        path.add_edge(1, 2)
        tri = LabeledGraph(3, ["A", "A", "A"])
        tri.add_edge(0, 1)
        tri.add_edge(1, 2)
        tri.add_edge(0, 2)
        assert canonical_query_key(path) != canonical_query_key(tri)

    def test_label_aware(self):
        g1 = LabeledGraph(2, ["A", "B"])
        g1.add_edge(0, 1)
        g2 = LabeledGraph(2, ["A", "A"])
        g2.add_edge(0, 1)
        assert canonical_query_key(g1) != canonical_query_key(g2)

    def test_label_placement_aware(self):
        # same label multiset, different placement on a path
        g1 = LabeledGraph(3, ["A", "B", "A"])
        g1.add_edge(0, 1)
        g1.add_edge(1, 2)
        g2 = LabeledGraph(3, ["A", "A", "B"])
        g2.add_edge(0, 1)
        g2.add_edge(1, 2)
        assert canonical_query_key(g1) != canonical_query_key(g2)

    def test_non_isomorphic_same_invariants(self):
        # 6-cycle vs two triangles: same degree/label statistics
        cycle = LabeledGraph(6, ["A"] * 6)
        for i in range(6):
            cycle.add_edge(i, (i + 1) % 6)
        triangles = LabeledGraph(6, ["A"] * 6)
        for base in (0, 3):
            triangles.add_edge(base, base + 1)
            triangles.add_edge(base + 1, base + 2)
            triangles.add_edge(base, base + 2)
        assert not are_isomorphic(cycle, triangles)
        k1 = canonical_query_key(cycle)
        k2 = canonical_query_key(triangles)
        assert k1 is not None and k2 is not None
        assert k1 != k2


class TestGuards:
    def test_empty_graph(self):
        g = LabeledGraph(0, [])
        assert canonical_query_key(g) is not None

    def test_singleton(self):
        g = LabeledGraph(1, ["A"])
        assert canonical_query_key(g) is not None

    def test_branch_budget_returns_none(self):
        # an unlabelled cycle forces branching; budget 0 must bail out
        cycle = LabeledGraph(8, ["A"] * 8)
        for i in range(8):
            cycle.add_edge(i, (i + 1) % 8)
        assert canonical_query_key(cycle, max_branches=0) is None
        assert canonical_query_key(cycle) is not None

    def test_the_budget_runs_out_where_a_full_search_would(self):
        # the unlabelled 8-cycle has 16 leaves and the 7-leaf star
        # 7! = 5040: a key exactly when the budget covers them all,
        # though the star's twin leaves are counted, not searched
        cycle = LabeledGraph(8, ["A"] * 8)
        for i in range(8):
            cycle.add_edge(i, (i + 1) % 8)
        star = LabeledGraph(8, ["A"] * 8)
        for i in range(1, 8):
            star.add_edge(0, i)
        for graph, leaves in ((cycle, 16), (star, 5040)):
            assert canonical_query_key(graph, leaves - 1) is None
            assert canonical_query_key(graph, leaves) is not None
        assert canonical_query_key(star) is None  # over the default


def _subdivided(graph):
    """``graph`` with every edge split by a vertex carrying the edge's
    label: isomorphic exactly when the edge-labelled graphs are, under
    a checker that reads vertex labels only."""
    labels = [("vertex", lab) for lab in graph.labels]
    edges = list(graph.edges())
    out = LabeledGraph(
        len(labels) + len(edges),
        labels + [("edge", graph.edge_label(u, v)) for u, v in edges],
    )
    for i, (u, v) in enumerate(edges):
        out.add_edge(u, len(labels) + i)
        out.add_edge(v, len(labels) + i)
    return out


#: int and str labels side by side, ``1`` and ``"1"`` apart
MIXED_LABELS = st.sampled_from([0, 1, 2, "1", "a", "b"])


@st.composite
def labelled_queries(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.lists(MIXED_LABELS, min_size=n, max_size=n))
    graph = LabeledGraph(n, labels)
    edge_labels = draw(st.sampled_from([[None], [None, "x"], ["x", 2]]))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from(edge_labels)))
    return graph


@st.composite
def query_pairs(draw):
    """Two queries: independent, a permuted copy, or a permuted copy
    with one vertex relabelled."""
    g = draw(labelled_queries())
    kind = draw(st.sampled_from(["other", "twin", "near"]))
    if kind == "other":
        return g, draw(labelled_queries())
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    h = permuted_instance(g, rng)
    if kind == "near":
        labels = list(h.labels)
        labels[rng.randrange(len(labels))] = draw(MIXED_LABELS)
        near = LabeledGraph(len(labels), labels)
        for u, v in h.edges():
            near.add_edge(u, v, h.edge_label(u, v))
        h = near
    return g, h


@given(pair=query_pairs())
@settings(max_examples=300, deadline=None)
def test_keys_are_equal_exactly_for_isomorphic_queries(pair):
    g, h = pair
    same = are_isomorphic(_subdivided(g), _subdivided(h))
    assert (canonical_query_key(g) == canonical_query_key(h)) == same


class TestCollectionState:
    """The key is a function of the query alone: labels the collection
    has never seen get codes from the query's own labels, so a mutation
    that extends the collection's interner moves no key."""

    def test_a_mutation_that_extends_the_interner_moves_no_key(self):
        svc = Service()
        svc.load_dataset("ppi", scale="tiny")
        interner = svc.catalog.get("ppi").interner
        known = interner.labels()[:2]
        rng = random.Random(4)
        queries = []
        for labels in (
            known + ["novel"], ["novel"] + known,
            known + [7], [7, "7"] + known,
        ):
            q = LabeledGraph(len(labels), labels)
            for v in range(1, len(labels)):
                q.add_edge(rng.randrange(v), v)
            queries += [q, permuted_instance(q, rng)]

        def keys():
            return [svc.cache.canon_for(permuted_instance(q, rng))
                    for q in queries]

        before = keys()
        newcomer = LabeledGraph(3, ["novel", 7, "7"])
        newcomer.add_edge(0, 1)
        newcomer.add_edge(1, 2)
        size = len(interner)
        svc.add_graph("ppi", newcomer)
        svc.run_until_idle()
        assert len(interner) == size + 3
        assert keys() == before
        for (a, key_a), (b, key_b) in combinations(zip(queries, before), 2):
            assert (key_a == key_b) == are_isomorphic(a, b)
