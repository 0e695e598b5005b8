"""Tests for FTV machinery: path census, tries, Grapes, GGSX."""

import gc
import hashlib
import random

import pytest

from repro.datasets import ppi_like
from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.indexing import (
    GGSXIndex,
    GrapesIndex,
    LabelInterner,
    PathTrie,
    SuffixTrie,
    canonical_sequence,
    coded_path_census,
    label_path_census,
)
from repro.matching import Budget, VF2Matcher
from repro.workload import extract_query, generate_workload


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

    def test_coded_census_and_indexes_stop_at_three_edges(self):
        """The mask join has no middle to join a 4-edge path around;
        only the label-space reference takes any length."""
        g = LabeledGraph.from_edges(
            ["A", "B", "A", "B", "A"], [(0, 1), (1, 2), (2, 3), (3, 4)]
        )
        assert label_path_census(g, 4).counts[("A", "B", "A", "B", "A")]
        with pytest.raises(ValueError, match=r"0\.\.3"):
            coded_path_census(g, 4, (0, 1, 0, 1, 0))
        for cls in (GrapesIndex, GGSXIndex):
            with pytest.raises(ValueError, match=r"1\.\.3"):
                cls([g], max_path_length=4)
            with pytest.raises(ValueError, match=r"1\.\.3"):
                cls([g], max_path_length=0)

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

    #: sha256 of the coded census (sorted count rows, then sorted
    #: location rows) of every default-scale ``ppi`` graph, an
    #: ``update-stream``-sized newcomer and 180 generated ``ppi``
    #: queries of 4 / 8 / 12 edges, taken from the depth-first census
    #: the mask join replaced
    SERVED_CENSUS_SHA256 = (
        "b780982cee36979b364ec8fa06fe6da001aaf81d9d06c4054d0726d85e1da9a7"
    )

    def test_served_inputs_census_is_pinned(self):
        graphs = ppi_like()
        interner = LabelInterner(g.labels for g in graphs)
        newcomer = ppi_like(num_graphs=1, avg_nodes=160, seed=11)[0]
        queries = [
            q.graph
            for size in (4, 8, 12)
            for q in generate_workload(graphs, 60, size, seed=size)
        ]
        digest = hashlib.sha256()
        for g in graphs + [newcomer] + queries:
            census = coded_path_census(
                g, 3, interner.encode_vertices(g.labels),
                with_locations=True,
            )
            digest.update(repr(sorted(census.counts.items())).encode())
            digest.update(repr(sorted(census.locations.items())).encode())
        assert digest.hexdigest() == self.SERVED_CENSUS_SHA256


class TestPackedCensusEdges:
    """Where the packed join's field width and key space are pushed:
    a count past 32 bits, fields past 64, and codes no label sorts
    like."""

    def test_a_star_counts_past_32_bits(self):
        """A star of 66 000 same-label leaves: Σ deg³ needs 64-bit
        fields, and its 2-edge count, 66 000 · 65 999, outgrows 2³²."""
        leaves = 66_000
        g = LabeledGraph.from_edges(
            ["A"] + ["B"] * leaves, [(0, v) for v in range(1, leaves + 1)]
        )
        census = coded_path_census(g, 3, (0,) + (1,) * leaves)
        assert census.counts[1, 0, 1] > 2 ** 32
        assert census.counts == {
            (0,): 1,
            (1,): leaves,
            (0, 1): 2 * leaves,
            (1, 0, 1): leaves * (leaves - 1),
        }

    def test_fields_past_64_bits_unpack_by_shifts(self):
        from repro.indexing.features import _unpack

        assert list(_unpack([5 << 64 | 7], 2, 64)) == [7, 5]
        assert _unpack([5 << 128 | 7, 1 << 200], 2, 128) == [
            7, 5, 0, 1 << 72,
        ]

    def test_novel_labels_and_isolated_vertices_match_the_reference(self):
        """A query whose labels the collection has not seen takes
        fresh negative codes in order of appearance (Z, Y, Q = -1, -2,
        -3), which sort unlike the labels; vertices 6 and 7 touch
        nothing."""
        labels = ["A", "Z", "B", "Y", "A", "Q", "Z", "B"]
        g = LabeledGraph.from_edges(
            labels,
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 1)],
        )
        codes = LabelInterner([["A", "B"]]).encode_vertices(labels)
        assert codes == (0, -1, 1, -2, 0, -3, -1, 1)
        code_of = dict(zip(labels, codes))
        for length in range(4):
            expected = {
                canonical_sequence(tuple(code_of[lab] for lab in seq)): n
                for seq, n in label_path_census(g, length).counts.items()
            }
            assert coded_path_census(g, length, codes).counts == expected


def _tracked_reachable(root) -> int:
    """How many objects reachable from ``root`` (classes aside) the
    collector tracks."""
    seen = {id(root)}
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        tracked += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                stack.append(ref)
    return tracked


class TestTries:
    def test_path_trie_postings(self):
        t = PathTrie()
        t.insert(("A", "B"), 0, 3)
        t.insert(("A", "B"), 1, 1)
        assert t.postings == {("A", "B"): {0: 3, 1: 1}}

    def test_path_trie_merge(self):
        t = PathTrie()
        t.insert(("A",), 0, 2)
        t.insert(("A",), 0, 3)
        assert t.postings[("A",)] == {0: 5}
        assert t.locations == {}

    def test_locate_keeps_the_masks_a_graph_has_until_its_remove(self):
        t = PathTrie()
        for gid in (0, 1):
            t.insert(("A",), gid, 2)
            t.insert(("A", "B"), gid, 1)
        assert t.seal() == 2
        table = t.tables[("A",)]
        kept = t.locate(1, {("A",): 0b011, ("A", "B"): 0b110})
        assert t.locations == {1: kept}
        assert kept == {("A",): 0b011, ("A", "B"): 0b110}
        # keyed by the posting map's own path objects, not copies
        keys = {id(seq) for seq in t.postings}
        assert {id(seq) for seq in kept} == keys
        assert t.tables[("A",)] is table  # counts did not move
        t.remove_graphs([1])
        assert t.locations == {}
        t.insert(("A",), 1, 2)  # the slot revived: unlocated again
        assert 1 not in t.locations

    def test_path_trie_keys_are_the_inserted_paths(self):
        t = PathTrie()
        t.insert(("A", "B"), 0, 1)
        t.insert(("C",), 0, 1)
        assert set(t.postings) == {("A", "B"), ("C",)}

    def test_suffix_trie_indexes_suffixes(self):
        t = SuffixTrie()
        t.insert(("A", "B", "C"), 0, 1)
        assert set(t.postings) == {("A", "B", "C"), ("B", "C"), ("C",)}

    def test_a_new_graphs_posting_drops_the_table_a_probe_rebuilds(self):
        """A count below, between, equal to and above the sealed ones,
        then an id revived after a remove: each add drops the path's
        table, and the next probe rebuilds the one a fresh seal of the
        grown row builds."""
        t = PathTrie()
        t.insert(("A",), 0, 4)
        t.insert(("A",), 1, 8)
        assert t.tables == {}
        assert t.seal() == 1
        assert t.tables[("A",)] == ((4, 8), (0b11, 0b10))
        for gid, count, want in [
            (2, 2, ((2, 4, 8), (0b111, 0b011, 0b010))),       # below
            (3, 6, ((2, 4, 6, 8), (0b1111, 0b1011, 0b1010, 0b0010))),
            (4, 6, ((2, 4, 6, 8), (0b11111, 0b11011, 0b11010, 0b00010))),
            (5, 9, (
                (2, 4, 6, 8, 9),
                (0b111111, 0b111011, 0b111010, 0b100010, 0b100000),
            )),                                               # above
        ]:
            t.insert(("A",), gid, count)
            assert t.tables == {}
            assert t.mask_ge(("A",), count) == want[1][
                want[0].index(count)
            ]
            assert t.tables[("A",)] == want
        t.remove_graphs([3])
        assert t.tables == {}
        assert t.mask_ge(("A",), 1) == 0b110111
        assert t.tables[("A",)] == (
            (2, 4, 6, 8, 9),
            (0b110111, 0b110011, 0b110010, 0b100010, 0b100000),
        )
        t.insert(("A",), 3, 4)  # the revived id, at an existing count
        assert t.tables == {}
        assert t.mask_ge(("A",), 4) == 0b111011
        assert t.mask_ge(("A",), 5) == 0b110010

    def test_a_touch_drops_only_the_tables_of_the_rows_it_changes(self):
        t = SuffixTrie()
        t.insert(("A", "B"), 0, 2)
        t.insert(("B",), 1, 1)
        assert t.seal() == len(t.postings) == len(t.tables) == 2
        # graph 2's ("A", "B") lands on ("B",) as a suffix, then its
        # own ("B",) merges into that posting: both rows changed
        t.insert(("A", "B"), 2, 3)
        assert t.tables == {}
        assert t.mask_ge(("A", "B"), 3) == 0b100
        t.insert(("B",), 2, 4)
        assert set(t.tables) == {("A", "B")}
        assert t.mask_ge(("B",), 7) == 0b100
        assert t.tables[("B",)] == ((1, 2, 7), (0b111, 0b101, 0b100))
        # a seal walks the postings and keeps the tables it finds
        table = t.tables[("B",)]
        t.insert(("C",), 0, 1)
        assert t.seal() == 3 and t.tables[("B",)] is table
        assert set(t.tables) == set(t.postings)

    def test_a_remove_drops_the_paths_it_empties(self):
        t = PathTrie()
        t.insert(("A", "B"), 0, 1)
        t.insert(("A",), 0, 1)
        t.insert(("A",), 1, 1)
        t.seal()
        assert t.remove_graphs([0]) == 2
        assert t.postings == {("A",): {1: 1}}
        assert t.tables == {}
        t.install([(("C",), {4: 1}), (("A",), {})])
        assert t.postings == {("C",): {4: 1}}
        assert t.tables == {}
        assert t.seal() == 1
        assert set(t.tables) == {("C",)}

    @pytest.mark.parametrize("cls", [GrapesIndex, GGSXIndex])
    def test_removing_graphs_at_once_is_removing_them_one_by_one(self, cls):
        graphs = ppi_like(num_graphs=6, avg_nodes=40, num_labels=6, seed=3)
        one_by_one, at_once = cls(graphs), cls(graphs)
        for index in (one_by_one, at_once):
            index.warm()
            if cls is GrapesIndex:  # locate a graph that goes
                index.feature_locations(graphs[1], 2)
                assert 2 in index.trie.locations
        removed = sum(one_by_one.remove_graphs([g]) for g in (4, 2, 0))
        assert at_once.remove_graphs((4, 2, 0)) == removed
        assert at_once.tombstones == one_by_one.tombstones == {0, 2, 4}
        assert at_once.trie.postings == one_by_one.trie.postings
        assert set(at_once.trie.tables) == set(one_by_one.trie.tables)
        assert at_once.trie.locations == one_by_one.trie.locations == {}
        with pytest.raises(ValueError, match="already removed"):
            at_once.remove_graphs((1, 2))
        assert at_once.tombstones == {0, 2, 4}

    @pytest.mark.parametrize("cls", [GrapesIndex, GGSXIndex])
    def test_the_index_stays_gc_quiet(self, cls):
        """Keys are tuples of ints, rows ``dict[int, int]``, tables and
        location maps hold ints: CPython untracks all of them, so the
        collector walks a few containers per index however many paths
        it holds — warm, mutated and located alike.  (A collection
        untracks a tuple whose items it untracked first; a table pair
        met before its items waits for the next one, hence two.)"""
        for num_graphs in (1, 6):
            index = cls(ppi_like(num_graphs=num_graphs, seed=1))
            index.warm()
            index.add_graph(index.graphs[0])
            index.remove_graphs([0])
            index.warm()
            for q in generate_workload(index.graphs, 3, 4, seed=1):
                index.query(q.graph, Budget(max_steps=10_000))
            gc.collect()
            gc.collect()
            assert len(index.trie.postings) > 2_500
            assert _tracked_reachable(index.trie) <= 8

    def test_node_count_is_the_prefixes_of_the_live_paths(self):
        t = PathTrie()
        assert t.node_count == 0
        t.insert(("A", "B"), 0, 1)
        assert t.node_count == 2
        t.insert(("A", "C", "D"), 1, 1)
        assert t.node_count == 4  # A, AB, AC, ACD
        t.remove_graphs([1])
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
