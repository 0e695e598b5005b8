"""Unit tests for the matcher engine framework (budgets, outcomes)."""

import time

import pytest

from repro.graphs import LabeledGraph
from repro.matching import (
    Budget,
    GraphIndex,
    MatchOutcome,
    VF2Matcher,
    drive,
)

from .conftest import triangle_with_tail


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_steps=0)
        with pytest.raises(ValueError):
            Budget(timeout_s=-1)


class TestDrive:
    @staticmethod
    def _fixed_engine(n, outcome):
        def gen():
            for _ in range(n):
                yield
            return outcome
        return gen()

    def test_completes_and_counts_steps(self):
        out = drive(self._fixed_engine(17, MatchOutcome(found=True)))
        assert out.steps == 17
        assert out.found
        assert not out.killed

    def test_budget_kills(self):
        out = drive(
            self._fixed_engine(1000, MatchOutcome(found=True)),
            Budget(max_steps=10),
        )
        assert out.killed
        assert not out.found
        assert out.steps == 10

    def test_exact_budget_boundary(self):
        # finishing on the same step the budget would expire counts as
        # killed only if the engine did not return first
        out = drive(
            self._fixed_engine(9, MatchOutcome(found=True)),
            Budget(max_steps=10),
        )
        assert not out.killed
        assert out.steps == 9

    def test_timeout_kills(self):
        def slow():
            while True:
                time.sleep(0.001)
                yield

        out = drive(slow(), Budget(timeout_s=0.05, check_every=8))
        assert out.killed


class TestGraphIndex:
    def test_label_index(self):
        g = LabeledGraph(4, ["A", "B", "A", "C"])
        ix = GraphIndex(g)
        assert ix.candidates_by_label("A") == (0, 2)
        assert ix.candidates_by_label("missing") == ()
        assert ix.label_frequencies["A"] == 2

    def test_degrees(self):
        ix = GraphIndex(triangle_with_tail())
        assert ix.degrees == (3, 2, 2, 1)

    def test_edge_frequency(self):
        g = LabeledGraph(4, ["A", "B", "A", "B"])
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_edge(0, 2)
        ix = GraphIndex(g)
        assert ix.edge_frequency("A", "B") == 2
        assert ix.edge_frequency("B", "A") == 2
        assert ix.edge_frequency("A", "A") == 1
        assert ix.edge_frequency("B", "B") == 0


class TestMatcherAPI:
    def test_run_accepts_graph_or_index(self):
        g = triangle_with_tail()
        q = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        m = VF2Matcher()
        out1 = m.run(g, q)
        out2 = m.run(m.prepare(g), q)
        assert out1.num_embeddings == out2.num_embeddings

    def test_decide_stops_at_first(self):
        g = triangle_with_tail()
        q = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        out = VF2Matcher().decide(g, q)
        assert out.found
        assert out.num_embeddings == 1

    def test_empty_query_rejected(self):
        g = triangle_with_tail()
        with pytest.raises(ValueError):
            VF2Matcher().run(g, LabeledGraph(0, []))

    def test_outcome_algorithm_name(self):
        g = triangle_with_tail()
        q = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        assert VF2Matcher().run(g, q).algorithm == "VF2"
