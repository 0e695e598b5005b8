"""Unit tests for the LabeledGraph substrate."""

import pytest

from repro.graphs import GraphError, LabeledGraph

from .conftest import triangle_with_tail


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph(0, [])
        assert g.order == 0
        assert g.size == 0

    def test_label_count_mismatch(self):
        with pytest.raises(GraphError):
            LabeledGraph(3, ["A", "B"])

    def test_negative_order(self):
        with pytest.raises(GraphError):
            LabeledGraph(-1, [])

    def test_from_edges(self):
        g = LabeledGraph.from_edges(["A", "B", "C"], [(0, 1), (1, 2)])
        assert g.size == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 1)
        assert not g.has_edge(0, 2)

    def test_rejects_self_loop(self):
        g = LabeledGraph(2, ["A", "B"])
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_rejects_duplicate_edge(self):
        g = LabeledGraph(2, ["A", "B"])
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 0)

    def test_rejects_out_of_range_edge(self):
        g = LabeledGraph(2, ["A", "B"])
        with pytest.raises(GraphError):
            g.add_edge(0, 2)

    def test_edge_labels(self):
        g = LabeledGraph(2, ["A", "B"])
        g.add_edge(0, 1, label="bond")
        assert g.edge_label(0, 1) == "bond"
        assert g.edge_label(1, 0) == "bond"

    def test_unlabeled_edge_label_is_none(self):
        g = LabeledGraph(2, ["A", "B"])
        g.add_edge(0, 1)
        assert g.edge_label(0, 1) is None


class TestAccessors:
    def test_neighbors_sorted(self):
        g = LabeledGraph(4, list("ABCD"))
        g.add_edge(3, 0)
        g.add_edge(1, 0)
        g.add_edge(2, 0)
        assert g.neighbors(0) == (1, 2, 3)

    def test_degree(self):
        g = triangle_with_tail()
        assert g.degree(0) == 3
        assert g.degree(3) == 1

    def test_edges_iteration_sorted_unique(self):
        g = triangle_with_tail()
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]

    def test_label_frequencies(self):
        g = LabeledGraph(4, ["A", "A", "B", "C"])
        freq = g.label_frequencies()
        assert freq["A"] == 2
        assert freq["B"] == 1

    def test_density_and_average_degree(self):
        g = triangle_with_tail()
        assert g.density() == pytest.approx(4 / 6)
        assert g.average_degree() == pytest.approx(2.0)

    def test_density_of_trivial_graphs(self):
        assert LabeledGraph(0, []).density() == 0.0
        assert LabeledGraph(1, ["A"]).density() == 0.0


class TestPermutation:
    def test_identity_permutation(self):
        g = triangle_with_tail()
        h = g.permuted([0, 1, 2, 3])
        assert h.same_labeled_structure(g)

    def test_swap_permutation_moves_labels_and_edges(self):
        g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        h = g.permuted([1, 0])
        assert h.label(0) == "B"
        assert h.label(1) == "A"
        assert h.has_edge(0, 1)

    def test_invalid_permutation_rejected(self):
        g = triangle_with_tail()
        with pytest.raises(GraphError):
            g.permuted([0, 0, 1, 2])

    def test_permutation_preserves_signature(self):
        g = triangle_with_tail()
        h = g.permuted([3, 1, 0, 2])
        assert (
            h.degree_label_signature() == g.degree_label_signature()
        )

    def test_permutation_preserves_edge_labels(self):
        g = LabeledGraph(3, ["A", "B", "C"])
        g.add_edge(0, 1, label="x")
        g.add_edge(1, 2, label="y")
        h = g.permuted([2, 0, 1])
        assert h.edge_label(2, 0) == "x"
        assert h.edge_label(0, 1) == "y"


class TestStructure:
    def test_connected_components_single(self):
        g = triangle_with_tail()
        assert g.connected_components() == [[0, 1, 2, 3]]
        assert g.is_connected()

    def test_connected_components_multiple(self):
        g = LabeledGraph(5, list("AAABB"))
        g.add_edge(0, 1)
        g.add_edge(3, 4)
        comps = g.connected_components()
        assert comps == [[0, 1], [2], [3, 4]]
        assert not g.is_connected()

    def test_induced_subgraph(self):
        g = triangle_with_tail()
        sub, mapping = g.induced_subgraph([0, 1, 2])
        assert sub.order == 3
        assert sub.size == 3  # the triangle
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_induced_subgraph_relabels(self):
        g = triangle_with_tail()
        sub, mapping = g.induced_subgraph([3, 0])
        assert sub.order == 2
        assert sub.size == 1
        assert sub.label(0) == "D"
        assert sub.label(1) == "A"
        assert mapping == {3: 0, 0: 1}

    def test_induced_subgraph_duplicate_rejected(self):
        g = triangle_with_tail()
        with pytest.raises(GraphError):
            g.induced_subgraph([0, 0])

    def test_same_labeled_structure_detects_differences(self):
        g = triangle_with_tail()
        h = triangle_with_tail()
        assert g.same_labeled_structure(h)
        other = LabeledGraph(4, ["A", "B", "C", "E"])
        other.add_edge(0, 1)
        assert not g.same_labeled_structure(other)
