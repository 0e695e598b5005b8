"""sPath-specific tests: distance signatures and path covers."""

import random

import pytest

from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.matching import SPathIndex, SPathMatcher, distance_signature

from .conftest import random_query_from


def _path_graph():
    # A - B - C - D  (a labeled path)
    return LabeledGraph.from_edges(
        ["A", "B", "C", "D"], [(0, 1), (1, 2), (2, 3)]
    )


class TestDistanceSignature:
    def test_layers(self):
        g = _path_graph()
        sig = distance_signature(g, 0, radius=3)
        assert sig[0] == {"B": 1}
        assert sig[1] == {"C": 1}
        assert sig[2] == {"D": 1}

    def test_radius_truncates(self):
        g = _path_graph()
        sig = distance_signature(g, 0, radius=2)
        assert len(sig) == 2
        assert sig[1] == {"C": 1}

    def test_counts_multiplicity(self):
        g = LabeledGraph.from_edges(
            ["A", "B", "B"], [(0, 1), (0, 2)]
        )
        sig = distance_signature(g, 0, radius=1)
        assert sig[0] == {"B": 2}


def test_distance_signature_is_what_the_counter_bfs_returned(small_store):
    """The exported signature is rebuilt over the bitmask BFS; its
    value is the dict/deque BFS's, kept with the oracle."""
    from ._nfv_recursive import distance_signature as counter_bfs

    for radius in (1, 2, 3, 5):
        for v in small_store.vertices():
            assert distance_signature(small_store, v, radius) == (
                counter_bfs(small_store, v, radius)
            )


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
