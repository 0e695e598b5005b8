"""Cross-algorithm agreement: every matcher must find the same answers.

The brute-force :class:`ReferenceMatcher` is ground truth.  On dozens of
random (stored graph, query) pairs spanning several structural regimes,
all five production matchers must return exactly the same embedding
sets, the same decision answers, and respect the embedding cap.
"""

import random

import pytest

from repro.graphs import (
    LabeledGraph,
    gnm_graph,
    powerlaw_graph,
    sparse_tree_like_graph,
    uniform_labels,
    zipf_labels,
)
from repro.matching import Budget, make_matcher

from .conftest import canonical_embeddings, random_query_from

ALGORITHMS = ("VF2", "QSI", "GQL", "SPA", "TUR")


def _stores():
    rng = random.Random(99)
    return [
        gnm_graph(
            35, 80, uniform_labels(35, ["A", "B", "C"], rng), rng,
            name="gnm",
        ),
        powerlaw_graph(
            40, 3, zipf_labels(40, ["A", "B", "C", "D"], rng), rng,
            name="pl",
        ),
        sparse_tree_like_graph(
            50, 0.3, zipf_labels(50, ["A", "B"], rng, 1.4), rng,
            name="tree",
        ),
    ]


STORES = _stores()


@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize("store_idx", range(len(STORES)))
@pytest.mark.parametrize("qseed", [0, 1, 2, 3])
def test_full_embedding_agreement(alg, store_idx, qseed):
    store = STORES[store_idx]
    query = random_query_from(store, 4 + qseed, 1000 + qseed)
    ref = make_matcher("REF").run(store, query, max_embeddings=10**6)
    out = make_matcher(alg).run(store, query, max_embeddings=10**6)
    assert out.found == ref.found
    assert canonical_embeddings(out.embeddings) == canonical_embeddings(
        ref.embeddings
    )
    assert out.exhausted


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_embeddings_are_valid(alg, small_store):
    query = random_query_from(small_store, 5, 77)
    out = make_matcher(alg).run(small_store, query, max_embeddings=50)
    for emb in out.embeddings:
        # injective
        assert len(set(emb.values())) == len(emb)
        # label-preserving
        for qu, gv in emb.items():
            assert query.label(qu) == small_store.label(gv)
        # edge-preserving
        for u, v in query.edges():
            assert small_store.has_edge(emb[u], emb[v])


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_embedding_cap_respected(alg, small_store):
    query = random_query_from(small_store, 3, 5)
    out = make_matcher(alg).run(small_store, query, max_embeddings=3)
    assert out.num_embeddings <= 3
    assert out.found


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_count_only_counts_without_storing(alg, small_store):
    query = random_query_from(small_store, 4, 9)
    full = make_matcher(alg).run(small_store, query, max_embeddings=10**6)
    counted = make_matcher(alg).run(
        small_store, query, max_embeddings=10**6, count_only=True
    )
    assert counted.embeddings == []
    assert counted.num_embeddings == full.num_embeddings


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_unsatisfiable_query_refuted(alg, small_store):
    # a label absent from the store can never match
    query = LabeledGraph.from_edges(["A", "ZZZ"], [(0, 1)])
    out = make_matcher(alg).run(small_store, query)
    assert not out.found
    assert out.exhausted


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_budget_kill_reported(alg, medium_store):
    query = random_query_from(medium_store, 8, 3)
    out = make_matcher(alg).run(
        medium_store, query, budget=Budget(max_steps=5)
    )
    # 5 steps cannot finish anything on an 80-vertex store
    assert out.killed
    assert not out.exhausted
    assert out.steps == 5


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_determinism(alg, small_store):
    query = random_query_from(small_store, 5, 13)
    a = make_matcher(alg).run(small_store, query, max_embeddings=10**4)
    b = make_matcher(alg).run(small_store, query, max_embeddings=10**4)
    assert a.steps == b.steps
    assert canonical_embeddings(a.embeddings) == canonical_embeddings(
        b.embeddings
    )


def test_isomorphic_instances_same_answer(small_store):
    """Rewritten (permuted) queries must yield the same decision and the
    same translated embeddings — only the cost may differ."""
    query = random_query_from(small_store, 5, 21)
    perm = list(query.vertices())
    random.Random(4).shuffle(perm)
    permuted = query.permuted(perm)
    for alg in ALGORITHMS:
        a = make_matcher(alg).run(small_store, query, max_embeddings=10**6)
        b = make_matcher(alg).run(
            small_store, permuted, max_embeddings=10**6
        )
        translated = [
            {orig: emb[perm[orig]] for orig in query.vertices()}
            for emb in b.embeddings
        ]
        assert canonical_embeddings(a.embeddings) == canonical_embeddings(
            translated
        )


def test_registry_rejects_unknown():
    with pytest.raises(KeyError):
        make_matcher("NOPE")


def test_registry_lists_algorithms():
    from repro.matching import available_matchers

    names = available_matchers()
    for alg in ALGORITHMS:
        assert alg in names
