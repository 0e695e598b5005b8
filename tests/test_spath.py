"""sPath-specific tests: distance signatures and path covers."""

from collections import Counter

import pytest

from repro.graphs import LabeledGraph, bits_ascending
from repro.matching import SPathIndex, SPathMatcher
from repro.matching.masks import ball_levels

from .conftest import random_query_from


def _path_graph():
    # A - B - C - D  (a labeled path)
    return LabeledGraph.from_edges(
        ["A", "B", "C", "D"], [(0, 1), (1, 2), (2, 3)]
    )


def _open_balls(g, v, radius):
    """``result[d - 1]``: the vertices within distance ``d`` of ``v``,
    ``v`` itself excluded, read off ``ball_levels``' closed balls."""
    return [
        balls[v] ^ (1 << v)
        for balls in ball_levels(g.adjacency_masks(), g.adjacency(), radius)
    ]


class TestBalls:
    """``ball_levels`` read at ``v``: per distance ``d``, the vertices
    within distance ``d`` of ``v``, ``v`` itself excluded."""

    @staticmethod
    def balls(g, v, radius):
        return [
            list(bits_ascending(ball)) for ball in _open_balls(g, v, radius)
        ]

    def test_layers_accumulate(self):
        assert self.balls(_path_graph(), 0, 3) == [[1], [1, 2], [1, 2, 3]]

    def test_radius_truncates(self):
        assert self.balls(_path_graph(), 0, 2) == [[1], [1, 2]]

    def test_past_the_component_the_ball_stops_growing(self):
        g = LabeledGraph.from_edges(["A", "B", "B"], [(0, 1), (0, 2)])
        assert self.balls(g, 1, 3) == [[0], [0, 2], [0, 2]]


def test_balls_are_what_the_counter_bfs_returned(small_store):
    """The level-by-level balls behind both sides of the signature
    filter: the vertices within distance ``d`` carry, label for label,
    the dict/deque BFS's counts up to ``d``, kept with the oracle."""
    from ._nfv_recursive import distance_signature as counter_bfs

    labels = small_store.labels
    for radius in (1, 2, 3, 5):
        for v in small_store.vertices():
            layers = counter_bfs(small_store, v, radius)
            for d, ball in enumerate(_open_balls(small_store, v, radius), 1):
                assert Counter(
                    labels[w] for w in bits_ascending(ball)
                ) == sum(layers[:d], Counter())


def test_deep_query_needs_no_recursion():
    """A query deeper than the interpreter's recursion limit: the
    recursive join died with RecursionError (one generator frame per
    slot); the explicit-stack loop walks the path.  The bill is the
    recursive engine's at a raised limit."""
    n = 1200
    path = LabeledGraph.from_edges(
        ["A"] * n, [(i, i + 1) for i in range(n - 1)]
    )
    out = SPathMatcher().decide(path, path)
    assert out.found
    assert out.steps == 1_442_695
    assert out.exhausted and not out.killed


class TestPathCover:
    def _cover(self, query, matcher=None):
        matcher = matcher or SPathMatcher()
        cand_size = [1] * query.order
        return matcher._path_cover(query, cand_size)

    def test_covers_all_edges(self, small_store):
        query = random_query_from(small_store, 7, 3)
        paths = self._cover(query)
        covered = set()
        for p in paths:
            for a, b in zip(p, p[1:]):
                covered.add((min(a, b), max(a, b)))
        assert covered == set(query.edges())

    def test_paths_respect_max_length(self, small_store):
        query = random_query_from(small_store, 8, 11)
        matcher = SPathMatcher(max_path_length=2)
        paths = self._cover(query, matcher)
        assert all(len(p) - 1 <= 2 for p in paths)

    def test_paths_are_walks_in_query(self, small_store):
        query = random_query_from(small_store, 6, 19)
        for p in self._cover(query):
            for a, b in zip(p, p[1:]):
                assert query.has_edge(a, b)


class TestFiltering:
    def test_signature_filter_sound(self, small_store):
        """sPath must never lose embeddings to its distance filter —
        covered broadly by agreement tests; pinned here with radius 4."""
        from repro.matching import make_matcher

        from .conftest import canonical_embeddings

        query = random_query_from(small_store, 5, 29)
        ref = make_matcher("REF").run(
            small_store, query, max_embeddings=10**6
        )
        out = SPathMatcher(radius=4).run(
            small_store, query, max_embeddings=10**6
        )
        assert canonical_embeddings(out.embeddings) == (
            canonical_embeddings(ref.embeddings)
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SPathMatcher(radius=0)
        with pytest.raises(ValueError):
            SPathMatcher(max_path_length=0)

    def test_prepare_returns_spath_index(self, small_store):
        ix = SPathMatcher(radius=2).prepare(small_store)
        assert isinstance(ix, SPathIndex)
        assert ix.radius == 2

    def test_rebuilds_plain_index(self, small_store):
        from repro.matching import GraphIndex

        query = random_query_from(small_store, 4, 7)
        out = SPathMatcher().run(
            GraphIndex(small_store), query, max_embeddings=5
        )
        assert out.found
