"""The NFV indexes' counting pass equals the per-vertex builders it
replaced (kept in ``tests/_nfv_index_oracle.py``): sPath's distance
signatures table for table, label order included, and GraphQL's
neighbour signatures as a mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import LabeledGraph
from repro.harness import build_nfv_graph
from repro.matching import GraphQLIndex, SPathIndex
from repro.matching.masks import ball_levels

from . import _nfv_index_oracle as oracle


def _assert_same_tables(graph, radius):
    got = SPathIndex(graph, radius).ball_thresholds
    want = oracle.SPathIndex(graph, radius).ball_thresholds
    assert got == want
    assert [list(level) for level in got] == [list(level) for level in want]
    assert (
        GraphQLIndex(graph).neighbour_thresholds
        == oracle.GraphQLIndex(graph).neighbour_thresholds
    )


@pytest.mark.parametrize("scale", ["tiny", "default"])
@pytest.mark.parametrize("dataset", ["yeast", "human", "wordnet"])
def test_dataset_tables_are_the_oracles(dataset, scale):
    _assert_same_tables(build_nfv_graph(dataset, scale), radius=3)


@st.composite
def signature_graphs(draw):
    """Up to three components (so often disconnected, one-vertex graphs
    and isolated vertices included), int or str labels, and up to two
    more isolated vertices carrying a label no other vertex has; vertex
    IDs shuffled so those are not always last."""
    pool = draw(st.sampled_from([(0, 1, 2), ("A", "B", "C")]))
    lonely = 9 if isinstance(pool[0], int) else "Z"
    labels: list = []
    edges: list = []
    for size in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)):
        base = len(labels)
        labels += draw(
            st.lists(st.sampled_from(pool), min_size=size, max_size=size)
        )
        pairs = [
            (base + u, base + v)
            for u in range(size)
            for v in range(u + 1, size)
        ]
        if pairs:
            edges += draw(st.lists(st.sampled_from(pairs), unique=True))
    labels += [lonely] * draw(st.integers(0, 2))
    ids = draw(st.permutations(range(len(labels))))
    moved = [None] * len(labels)
    for v, lab in enumerate(labels):
        moved[ids[v]] = lab
    return LabeledGraph.from_edges(
        moved, [(ids[u], ids[v]) for u, v in edges]
    )


@given(graph=signature_graphs(), radius=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_counting_pass_is_the_per_vertex_builders(graph, radius):
    _assert_same_tables(graph, radius)
    masks = graph.adjacency_masks()
    levels = list(ball_levels(masks, graph.adjacency(), radius))
    for v in graph.vertices():
        assert [balls[v] ^ (1 << v) for balls in levels] == oracle._balls(
            masks, v, radius
        )
