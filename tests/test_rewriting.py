"""Tests for query rewritings (ILF/IND/DND/combos) and label stats."""

import random

import pytest

from repro.graphs import LabeledGraph
from repro.rewriting import (
    ALL_PAPER_REWRITINGS,
    LabelStats,
    RandomRewriting,
    make_rewriting,
)

from .conftest import random_query_from, triangle_with_tail


def _stats():
    # stored-graph label frequencies: A=20, B=15, C=10 (the paper's
    # Fig. 5 example)
    from collections import Counter

    return LabelStats(Counter({"A": 20, "B": 15, "C": 10}))


def _fig5_query():
    """The paper's Fig. 5 example query: labels A,A,A,B,B,C,C."""
    g = LabeledGraph(7, ["A", "A", "A", "B", "B", "C", "C"])
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 4)
    g.add_edge(3, 5)
    g.add_edge(4, 6)
    return g


class TestLabelStats:
    def test_of_graph(self):
        stats = LabelStats.of_graph(triangle_with_tail())
        assert stats.frequency("A") == 1
        assert stats.frequency("missing") == 0

    def test_of_collection(self):
        g = triangle_with_tail()
        stats = LabelStats.of_collection([g, g])
        assert stats.frequency("A") == 2
        assert len(stats) == 4


class TestPermutationValidity:
    @pytest.mark.parametrize("name", ("Orig",) + ALL_PAPER_REWRITINGS)
    def test_valid_permutation(self, name):
        q = _fig5_query()
        perm = make_rewriting(name).permutation(q, _stats())
        assert sorted(perm) == list(range(q.order))

    @pytest.mark.parametrize("name", ALL_PAPER_REWRITINGS + ("RND3",))
    def test_produces_isomorphic_graph(self, name):
        q = _fig5_query()
        rq = make_rewriting(name).apply(q, _stats())
        assert rq.graph.degree_label_signature() == (
            q.degree_label_signature()
        )
        assert rq.graph.size == q.size

    def test_orig_is_identity(self):
        q = _fig5_query()
        rq = make_rewriting("Orig").apply(q, _stats())
        assert rq.graph.same_labeled_structure(q)
        assert rq.perm == tuple(q.vertices())


class TestOrderingProperties:
    def test_ilf_orders_by_label_frequency(self):
        q = _fig5_query()
        rq = make_rewriting("ILF").apply(q, _stats())
        g = rq.graph
        freqs = [
            _stats().frequency(g.label(v)) for v in g.vertices()
        ]
        assert freqs == sorted(freqs)
        # C (freq 10) vertices first, A (freq 20) last
        assert g.label(0) == "C"
        assert g.label(6) == "A"

    def test_ind_orders_by_increasing_degree(self):
        q = _fig5_query()
        rq = make_rewriting("IND").apply(q, LabelStats.of_graph(q))
        g = rq.graph
        degrees = [g.degree(v) for v in g.vertices()]
        assert degrees == sorted(degrees)

    def test_dnd_orders_by_decreasing_degree(self):
        q = _fig5_query()
        rq = make_rewriting("DND").apply(q, LabelStats.of_graph(q))
        g = rq.graph
        degrees = [g.degree(v) for v in g.vertices()]
        assert degrees == sorted(degrees, reverse=True)

    def test_ilf_ind_breaks_ties_by_degree(self):
        q = _fig5_query()
        stats = _stats()
        rq = make_rewriting("ILF+IND").apply(q, stats)
        g = rq.graph
        keys = [
            (stats.frequency(g.label(v)), g.degree(v))
            for v in g.vertices()
        ]
        assert keys == sorted(keys)

    def test_ilf_dnd_breaks_ties_by_decreasing_degree(self):
        q = _fig5_query()
        stats = _stats()
        rq = make_rewriting("ILF+DND").apply(q, stats)
        g = rq.graph
        keys = [
            (stats.frequency(g.label(v)), -g.degree(v))
            for v in g.vertices()
        ]
        assert keys == sorted(keys)


class TestRandomRewriting:
    def test_deterministic_given_seed(self):
        q = _fig5_query()
        a = RandomRewriting(3).permutation(q, _stats())
        b = RandomRewriting(3).permutation(q, _stats())
        assert a == b

    def test_different_seeds_differ(self):
        q = _fig5_query()
        perms = {
            RandomRewriting(s).permutation(q, _stats()) for s in range(6)
        }
        assert len(perms) > 1

    def test_make_rewriting_rnd_names(self):
        r = make_rewriting("RND4")
        assert isinstance(r, RandomRewriting)
        assert r.seed == 4


class TestEmbeddingTranslation:
    def test_translate_round_trip(self, small_store):
        from repro.matching import VF2Matcher

        from .conftest import canonical_embeddings

        q = random_query_from(small_store, 5, 3)
        stats = LabelStats.of_graph(small_store)
        rq = make_rewriting("ILF+DND").apply(q, stats)
        orig = VF2Matcher().run(small_store, q, max_embeddings=10**6)
        rew = VF2Matcher().run(
            small_store, rq.graph, max_embeddings=10**6
        )
        translated = [
            rq.translate_embedding(e) for e in rew.embeddings
        ]
        assert canonical_embeddings(translated) == canonical_embeddings(
            orig.embeddings
        )


class TestRegistry:
    def test_every_paper_name_is_registered(self):
        for n in ("Orig",) + ALL_PAPER_REWRITINGS:
            assert make_rewriting(n).name == n

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_rewriting("XYZ")

    def test_rng_tie_breaking_produces_variants(self):
        q = _fig5_query()
        stats = _stats()
        perms = set()
        for seed in range(8):
            perms.add(
                make_rewriting("ILF").permutation(
                    q, stats, random.Random(seed)
                )
            )
        # ties among same-frequency labels leave room for variation
        assert len(perms) > 1
        # ...but every variant is still a valid ILF ordering
        for perm in perms:
            g = q.permuted(perm)
            freqs = [stats.frequency(g.label(v)) for v in g.vertices()]
            assert freqs == sorted(freqs)
