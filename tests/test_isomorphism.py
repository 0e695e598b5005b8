"""Tests for exact labeled-graph isomorphism."""

import random

import pytest

from repro.graphs import (
    LabeledGraph,
    are_isomorphic,
    gnm_graph,
    uniform_labels,
)

from .conftest import triangle_with_tail


class TestPositive:
    def test_identical_graphs(self):
        assert are_isomorphic(
            triangle_with_tail(), triangle_with_tail()
        )

    def test_permuted_graphs(self):
        g = triangle_with_tail()
        for seed in range(10):
            perm = list(g.vertices())
            random.Random(seed).shuffle(perm)
            assert are_isomorphic(g, g.permuted(perm))

    def test_random_permuted_graphs(self):
        rng = random.Random(3)
        g = gnm_graph(
            18, 40, uniform_labels(18, ["A", "B"], rng), rng
        )
        perm = list(g.vertices())
        rng.shuffle(perm)
        assert are_isomorphic(g, g.permuted(perm))

    def test_empty_graphs(self):
        assert are_isomorphic(LabeledGraph(0, []), LabeledGraph(0, []))

    def test_regular_same_label_graphs(self):
        """Hard case for invariants: two 6-cycles are isomorphic."""
        c1 = LabeledGraph.from_edges(
            ["A"] * 6, [(i, (i + 1) % 6) for i in range(6)]
        )
        perm = [3, 5, 1, 0, 4, 2]
        assert are_isomorphic(c1, c1.permuted(perm))


class TestNegative:
    def test_different_orders(self):
        assert not are_isomorphic(
            LabeledGraph(1, ["A"]), LabeledGraph(2, ["A", "A"])
        )

    def test_different_labels(self):
        a = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        b = LabeledGraph.from_edges(["A", "C"], [(0, 1)])
        assert not are_isomorphic(a, b)

    def test_same_invariants_different_structure(self):
        """C6 vs two C3s: same label/degree multiset, not isomorphic."""
        c6 = LabeledGraph.from_edges(
            ["A"] * 6, [(i, (i + 1) % 6) for i in range(6)]
        )
        c3c3 = LabeledGraph.from_edges(
            ["A"] * 6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        assert not are_isomorphic(c6, c3c3)

    def test_same_label_degree_classes_different_wiring(self):
        """A-A-B-B vs A-B-A-B: the same (label, degree) classes, but
        only the first has an A-A edge."""
        aabb = LabeledGraph.from_edges(
            ["A", "A", "B", "B"], [(0, 1), (1, 2), (2, 3)]
        )
        abab = LabeledGraph.from_edges(
            ["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)]
        )
        assert not are_isomorphic(aabb, abab)
