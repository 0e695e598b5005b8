"""GraphQL-specific tests: signatures, pseudo-iso refinement, plans."""

import itertools
import random

import pytest

from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.matching import GraphQLIndex, GraphQLMatcher
from repro.matching.graphql import _distinct_representatives
from repro.matching.masks import mask_ge

from .conftest import canonical_embeddings, random_query_from


def test_signature_contents():
    """Vertex 0 sees {B: 2, C: 1}, vertices 1-3 see {A: 1}: the index
    answers "who sees ``lab`` at least ``k`` times" as a bitmask."""
    g = LabeledGraph.from_edges(
        ["A", "B", "B", "C"], [(0, 1), (0, 2), (0, 3)]
    )
    ix = GraphQLIndex(g)

    def at_least(lab, k):
        return mask_ge(ix.neighbour_thresholds.get(lab), k)

    assert at_least("B", 1) == at_least("B", 2) == 0b0001
    assert at_least("B", 3) == 0
    assert at_least("C", 1) == 0b0001 and at_least("C", 2) == 0
    assert at_least("A", 1) == 0b1110 and at_least("A", 2) == 0
    assert at_least("Z", 1) == 0


def test_deep_query_needs_no_recursion():
    """A query deeper than the interpreter's recursion limit: the
    recursive join died with RecursionError (one generator frame per
    plan position); the explicit-stack loop walks the path.  The bill
    is the recursive engine's at a raised limit (1 200 x 1 200 filter
    probes, then the join)."""
    n = 1200
    path = LabeledGraph.from_edges(
        ["A"] * n, [(i, i + 1) for i in range(n - 1)]
    )
    out = GraphQLMatcher(refine_level=0).decide(path, path)
    assert out.found
    assert out.steps == 2_159_402
    assert out.exhausted and not out.killed


def test_signature_filter_prunes():
    """A query vertex needing two B-neighbours cannot match a store
    vertex with only one."""
    g = LabeledGraph.from_edges(
        ["A", "B", "A", "B", "B"], [(0, 1), (2, 3), (2, 4)]
    )
    q = LabeledGraph.from_edges(["A", "B", "B"], [(0, 1), (0, 2)])
    out = GraphQLMatcher().run(g, q, max_embeddings=100)
    assert out.found
    assert all(emb[0] == 2 for emb in out.embeddings)


def test_pseudo_iso_requires_distinct_neighbours():
    """Two same-label query neighbours need two distinct store
    neighbours — the bipartite test must catch the single-neighbour
    impostor."""
    g = LabeledGraph.from_edges(
        # vertex 0: one B neighbour; vertex 3: two B neighbours
        ["A", "B", "A", "B", "B"],
        [(0, 1), (2, 3), (2, 4)],
    )
    q = LabeledGraph.from_edges(["A", "B", "B"], [(0, 1), (0, 2)])
    matcher = GraphQLMatcher(refine_level=2)
    out = matcher.run(g, q, max_embeddings=100)
    assert all(emb[0] == 2 for emb in out.embeddings)


def test_distinct_representatives_against_brute_force():
    """Kuhn on bits decides what trying every assignment decides —
    also where the greedy pass alone would give up ([0b11, 0b01]: the
    first mask must be re-seated) and where re-seating chains."""
    assert _distinct_representatives([0b11, 0b01])
    assert _distinct_representatives([0b011, 0b101, 0b001])
    assert not _distinct_representatives([0b011, 0b001, 0b010])
    assert not _distinct_representatives([0b01, 0b01])
    assert _distinct_representatives([])
    rng = random.Random(5)
    for _ in range(400):
        width = rng.randrange(1, 6)
        avail = [
            rng.randrange(1, 1 << width)
            for _ in range(rng.randrange(1, 6))
        ]
        brute = any(
            all((a >> bit) & 1 for a, bit in zip(avail, picks))
            for picks in itertools.permutations(range(width), len(avail))
        )
        assert _distinct_representatives(avail) == brute, avail


def test_refine_level_zero_still_correct(small_store):
    query = random_query_from(small_store, 5, 31)
    lazy = GraphQLMatcher(refine_level=0).run(
        small_store, query, max_embeddings=10**6
    )
    eager = GraphQLMatcher(refine_level=4).run(
        small_store, query, max_embeddings=10**6
    )
    assert canonical_embeddings(lazy.embeddings) == canonical_embeddings(
        eager.embeddings
    )


def test_more_refinement_never_increases_join_answer(small_store):
    """Refinement prunes candidates; answers must be unchanged while
    steps may shift."""
    query = random_query_from(small_store, 6, 37)
    out0 = GraphQLMatcher(refine_level=0).run(
        small_store, query, max_embeddings=10**6
    )
    out4 = GraphQLMatcher(refine_level=4).run(
        small_store, query, max_embeddings=10**6
    )
    assert out0.num_embeddings == out4.num_embeddings


def test_invalid_refine_level():
    with pytest.raises(ValueError):
        GraphQLMatcher(refine_level=-1)


def test_prepare_returns_graphql_index(small_store):
    assert isinstance(GraphQLMatcher().prepare(small_store), GraphQLIndex)


def test_accepts_plain_graph_index(small_store):
    """Engine upgrades a plain GraphIndex transparently."""
    from repro.matching import GraphIndex

    query = random_query_from(small_store, 4, 5)
    plain = GraphIndex(small_store)
    out = GraphQLMatcher().run(plain, query, max_embeddings=10)
    assert out.found
