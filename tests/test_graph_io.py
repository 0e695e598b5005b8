"""Unit tests for graph serialization (GFU export, JSON)."""

from repro.graphs import (
    LabeledGraph,
    dumps_gfu,
    graph_from_json,
    graph_to_json,
)

from .conftest import triangle_with_tail


class TestGFU:
    def test_layout(self):
        """Per graph: ``#name``, vertex count, one label a line, edge
        count, one ``u v`` a line (the Grapes/GGSX input format)."""
        g1 = triangle_with_tail()
        g2 = LabeledGraph.from_edges(["X", "Y"], [(0, 1)], name="tiny")
        assert dumps_gfu([g1, g2]) == (
            "#triangle_tail\n4\nA\nB\nC\nD\n4\n0 1\n0 2\n0 3\n1 2\n"
            "#tiny\n2\nX\nY\n1\n0 1\n"
        )

    def test_empty_collection(self):
        assert dumps_gfu([]) == ""


class TestJSON:
    def test_round_trip_with_edge_labels(self):
        g = LabeledGraph(3, ["A", "B", "C"], name="j")
        g.add_edge(0, 1, label="x")
        g.add_edge(1, 2)
        h = graph_from_json(graph_to_json(g))
        assert h.same_labeled_structure(g)
        assert h.name == "j"
        assert h.edge_label(0, 1) == "x"
        assert h.edge_label(1, 2) is None

    def test_json_deterministic(self):
        g = triangle_with_tail()
        assert graph_to_json(g) == graph_to_json(triangle_with_tail())
