"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.workload import extract_query


def canonical_embeddings(embeddings):
    """Order-independent canonical form of an embedding set."""
    return sorted(tuple(sorted(e.items())) for e in embeddings)


def relabelled(graph, label):
    """``graph`` with vertex 0 carrying ``label`` instead of its own."""
    return LabeledGraph.from_edges(
        [label] + list(graph.labels[1:]), graph.edges()
    )


def random_query_from(graph, num_edges, seed):
    """A connected query grown from ``graph`` (always satisfiable)."""
    return extract_query(graph, num_edges, random.Random(seed))


def triangle_with_tail():
    """A 4-vertex labeled graph: triangle A-B-C plus a tail A-D."""
    g = LabeledGraph(4, ["A", "B", "C", "D"], name="triangle_tail")
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    g.add_edge(0, 3)
    return g


@pytest.fixture(scope="session")
def small_store():
    """A 40-vertex random stored graph with 3 labels (session-wide)."""
    rng = random.Random(7)
    return gnm_graph(
        40, 90, uniform_labels(40, ["A", "B", "C"], rng), rng, name="store"
    )


@pytest.fixture(scope="session")
def medium_store():
    """A 80-vertex random stored graph with 4 labels (session-wide)."""
    rng = random.Random(11)
    return gnm_graph(
        80, 200, uniform_labels(80, ["A", "B", "C", "D"], rng), rng,
        name="medium",
    )
