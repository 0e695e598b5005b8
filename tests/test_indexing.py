"""Tests for FTV machinery: path census, tries, Grapes, GGSX."""

import random

import pytest

from repro.datasets import ppi_like
from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.indexing import (
    GGSXIndex,
    GrapesIndex,
    PathTrie,
    SuffixTrie,
    canonical_sequence,
    label_path_census,
)
from repro.matching import Budget, VF2Matcher
from repro.workload import extract_query


def _collection():
    return ppi_like(num_graphs=3, avg_nodes=60, num_labels=8, seed=5)


class TestCensus:
    def test_canonical_direction(self):
        assert canonical_sequence(("B", "A")) == ("A", "B")
        assert canonical_sequence(("A", "B")) == ("A", "B")
        assert canonical_sequence(("A",)) == ("A",)

    def test_single_edge_graph(self):
        g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        census = label_path_census(g, 2)
        assert census.counts[("A",)] == 1
        assert census.counts[("B",)] == 1
        # the edge is found from both directions
        assert census.counts[("A", "B")] == 2

    def test_path_graph_counts(self):
        g = LabeledGraph.from_edges(
            ["A", "B", "A"], [(0, 1), (1, 2)]
        )
        census = label_path_census(g, 2)
        assert census.counts[("A", "B")] == 4  # two edges, two directions
        assert census.counts[("A", "B", "A")] == 2

    def test_max_length_zero_is_label_count(self):
        g = LabeledGraph.from_edges(["A", "A", "B"], [(0, 1), (1, 2)])
        census = label_path_census(g, 0)
        assert census.counts == {("A",): 2, ("B",): 1}

    def test_locations_cover_path_vertices(self):
        g = LabeledGraph.from_edges(
            ["A", "B", "C"], [(0, 1), (1, 2)]
        )
        census = label_path_census(g, 2, with_locations=True)
        key = canonical_sequence(("A", "B", "C"))
        assert census.locations[key] == frozenset({0, 1, 2})

    def test_negative_length_rejected(self):
        g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
        with pytest.raises(ValueError):
            label_path_census(g, -1)

    def test_census_invariant_under_permutation(self):
        rng = random.Random(1)
        g = gnm_graph(
            15, 30, uniform_labels(15, ["A", "B"], rng), rng
        )
        perm = list(g.vertices())
        rng.shuffle(perm)
        c1 = label_path_census(g, 3)
        c2 = label_path_census(g.permuted(perm), 3)
        assert c1.counts == c2.counts


class TestTries:
    def test_path_trie_lookup(self):
        t = PathTrie()
        t.insert(("A", "B"), 0, 3)
        t.insert(("A", "B"), 1, 1)
        postings = t.lookup(("A", "B"))
        assert postings[0].count == 3
        assert postings[1].count == 1
        assert t.lookup(("B",)) == {}

    def test_path_trie_merge(self):
        t = PathTrie()
        t.insert(("A",), 0, 2)
        t.insert(("A",), 0, 3)
        posting = t.lookup(("A",))[0]
        assert posting.count == 5
        assert posting.locations == 0

    def test_locate_fills_the_postings_a_graph_has_until_its_remove(self):
        t = PathTrie()
        for gid in (0, 1):
            t.insert(("A",), gid, 2)
            t.insert(("A", "B"), gid, 1)
        table = t._find(("A",)).seal()
        t.locate(1, {("A",): 0b011, ("A", "B"): 0b110})
        assert t.located == {1}
        assert t._find(("A",)).thresholds is table  # counts did not move
        assert [p.locations for p in t.lookup(("A",)).values()] == [0, 0b011]
        assert t.lookup(("A", "B"))[1].locations == 0b110
        t.remove_graph(1)
        assert t.located == set()
        t.insert(("A",), 1, 2)  # the slot revived: unlocated again
        assert t.lookup(("A",))[1].locations == 0

    def test_path_trie_iter_features(self):
        t = PathTrie()
        t.insert(("A", "B"), 0, 1)
        t.insert(("C",), 0, 1)
        assert set(t.iter_features()) == {("A", "B"), ("C",)}

    def test_suffix_trie_indexes_suffixes(self):
        t = SuffixTrie()
        t.insert(("A", "B", "C"), 0, 1)
        assert t.contains(("A", "B", "C"))
        assert t.contains(("B", "C"))
        assert t.contains(("C",))
        assert not t.contains(("A", "C"))

    def test_a_new_graphs_posting_patches_the_sealed_table_in_place(self):
        """A count below, between, equal to and above the sealed ones,
        then an id revived after a remove: the table object survives
        each add and reads as a fresh seal of the grown map would."""
        t = PathTrie()
        t.insert(("A",), 0, 4)
        t.insert(("A",), 1, 8)
        assert t.seal() == 1
        node = t._find(("A",))
        table = node.thresholds
        assert table == ([4, 8], [0b11, 0b10])
        for gid, count, want in [
            (2, 2, ([2, 4, 8], [0b111, 0b011, 0b010])),       # below
            (3, 6, ([2, 4, 6, 8], [0b1111, 0b1011, 0b1010, 0b0010])),
            (4, 6, ([2, 4, 6, 8], [0b11111, 0b11011, 0b11010, 0b00010])),
            (5, 9, (
                [2, 4, 6, 8, 9],
                [0b111111, 0b111011, 0b111010, 0b100010, 0b100000],
            )),                                               # above
        ]:
            t.insert(("A",), gid, count)
            assert node.thresholds is table and table == want
            assert t.mask_ge(("A",), count) == want[1][
                want[0].index(count)
            ]
        assert t.seal() == 1 and node.thresholds is table
        t.remove_graph(3)
        assert node.thresholds is None
        assert t.seal() == 1
        resealed = node.thresholds
        assert resealed == (
            [2, 4, 6, 8, 9],
            [0b110111, 0b110011, 0b110010, 0b100010, 0b100000],
        )
        t.insert(("A",), 3, 4)  # the revived id, at an existing count
        assert node.thresholds is resealed
        assert t.mask_ge(("A",), 4) == 0b111011
        assert t.mask_ge(("A",), 5) == 0b110010

    def test_a_merge_unseals_and_seal_drains_without_a_walk(self):
        t = SuffixTrie()
        t.insert(("A", "B"), 0, 2)
        t.insert(("B",), 1, 1)
        assert t.seal() == t.feature_count == 2 and not t._unsealed
        # graph 2's ("A", "B") lands on ("B",) as a suffix, then its
        # own ("B",) merges into that posting: a count the table holds
        # changed, so that node — and only that node — unseals
        t.insert(("A", "B"), 2, 3)
        assert t._find(("A", "B")).thresholds == ([2, 3], [0b101, 0b100])
        assert t._find(("B",)).thresholds == ([1, 2, 3], [0b111, 0b101, 0b100])
        t.insert(("B",), 2, 4)
        assert t._unsealed == {t._find(("B",))}
        assert t.mask_ge(("B",), 7) == 0b100  # lazily, as before
        assert t.seal() == 2 and not t._unsealed
        assert t._find(("B",)).thresholds == ([1, 2, 7], [0b111, 0b101, 0b100])

    def test_insert_reports_each_created_posting_as_a_row(self):
        t = SuffixTrie()
        t.insert(("A", "B"), 0, 1)
        rows: list = []
        t.insert(("A", "B"), 1, 2, rows)
        t.insert(("B",), 1, 5, rows)  # merges: no second row
        assert [(seq, p.count) for seq, p in rows] == [
            (("A", "B"), 2), (("B",), 7),
        ]
        assert all(p is t.lookup(seq)[1] for seq, p in rows)

    def test_feature_count_follows_install_and_remove(self):
        t = PathTrie()
        t.insert(("A", "B"), 0, 1)
        t.insert(("A",), 0, 1)
        t.insert(("A",), 1, 1)
        assert t.feature_count == 2
        assert t.remove_graph(0) == 2
        assert t.feature_count == 1 == sum(1 for _ in t.iter_postings())
        t.install(("C",), {4: t.lookup(("A",))[1]})
        t.install(("A",), {})
        assert t.feature_count == 1 == sum(1 for _ in t.iter_postings())
        assert t.seal() == 1 and not t._unsealed

    def test_node_count_grows(self):
        t = PathTrie()
        assert t.node_count == 0
        t.insert(("A", "B"), 0, 1)
        assert t.node_count == 2


class TestGrapes:
    @pytest.fixture(scope="class")
    def setup(self):
        graphs = _collection()
        index = GrapesIndex(graphs, max_path_length=2, threads=1)
        return graphs, index

    def test_source_graph_always_candidate(self, setup):
        """No false dismissals: the graph a query was grown from must
        survive filtering."""
        graphs, index = setup
        for seed in range(6):
            rng = random.Random(seed)
            gid = rng.randrange(len(graphs))
            q = extract_query(graphs[gid], 5, rng)
            assert gid in index.filter(q)

    def test_verification_agrees_with_direct_vf2(self, setup):
        graphs, index = setup
        rng = random.Random(9)
        q = extract_query(graphs[1], 5, rng)
        report = index.verify(q, 1, Budget(max_steps=10**6))
        direct = VF2Matcher().decide(graphs[1], q)
        assert report.matched == direct.found

    def test_query_returns_source_graph(self, setup):
        graphs, index = setup
        rng = random.Random(13)
        q = extract_query(graphs[2], 4, rng)
        result = index.query(q, Budget(max_steps=10**6))
        assert 2 in result.matching_ids
        assert result.total_steps >= 0

    def test_with_threads_shares_index(self, setup):
        _, index = setup
        g4 = index.with_threads(4)
        assert g4.trie is index.trie
        assert g4.threads == 4
        assert g4.method_name == "Grapes/4"
        assert index.threads == 1

    def test_multithreaded_never_slower(self, setup):
        """Per-pair simulated time with 4 workers is <= sequential."""
        graphs, index = setup
        g4 = index.with_threads(4)
        rng = random.Random(21)
        q = extract_query(graphs[0], 6, rng)
        budget = Budget(max_steps=10**6)
        t1 = index.verify(q, 0, budget)
        t4 = g4.verify(q, 0, budget)
        assert t4.steps <= t1.steps
        assert t1.matched == t4.matched

    def test_root_slices_partition(self, setup):
        graphs, index = setup
        rng = random.Random(25)
        q = extract_query(graphs[0], 4, rng)
        comps = index.relevant_components(q, 0)
        assert comps  # source graph must have relevant components
        from repro.matching import GraphIndex

        comp_index = GraphIndex(comps[0][0])
        slices = index.root_slices(comp_index, q, num_slices=3)
        flat = [v for s in slices for v in s]
        assert flat == list(comp_index.candidates_by_label(q.label(0)))

    def test_thread_validation(self):
        graphs = _collection()
        with pytest.raises(ValueError):
            GrapesIndex(graphs, threads=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            GrapesIndex([])


class TestGGSX:
    @pytest.fixture(scope="class")
    def setup(self):
        graphs = _collection()
        return graphs, GGSXIndex(graphs, max_path_length=2)

    def test_source_graph_always_candidate(self, setup):
        graphs, index = setup
        for seed in range(6):
            rng = random.Random(seed)
            gid = rng.randrange(len(graphs))
            q = extract_query(graphs[gid], 5, rng)
            assert gid in index.filter(q)

    def test_candidates_superset_of_grapes(self, setup):
        """GGSX's suffix-accumulated counts under-prune relative to
        Grapes' exact counts."""
        graphs, ggsx = setup
        grapes = GrapesIndex(graphs, max_path_length=2)
        for seed in range(5):
            rng = random.Random(100 + seed)
            q = extract_query(graphs[0], 5, rng)
            assert set(grapes.filter(q)) <= set(ggsx.filter(q))

    def test_verify_whole_graph(self, setup):
        graphs, index = setup
        rng = random.Random(31)
        q = extract_query(graphs[1], 5, rng)
        report = index.verify(q, 1, Budget(max_steps=10**6))
        assert report.matched
        assert report.components_tried == 1

    def test_budget_kill(self, setup):
        graphs, index = setup
        rng = random.Random(37)
        q = extract_query(graphs[0], 6, rng)
        report = index.verify(q, 0, Budget(max_steps=3))
        assert report.killed
        assert report.charged_steps(Budget(max_steps=3)) == 3
