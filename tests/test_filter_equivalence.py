"""Equivalence proofs for the filter-phase fast path.

The filter rework (interned feature codes, bitset posting lists,
memoized query censuses, request coalescing) must
not move a single number — mirroring ``test_executor_equivalence.py``
for the execution fast path.  These tests check, over corpora of random
collections and queries, that

* the int-coded census partitions paths into exactly the classes of
  the label-space reference census, with identical counts;
* ``GrapesIndex.filter`` / ``GGSXIndex.filter`` (bitwise-AND folds over
  threshold masks) return exactly the reference filter's candidate
  sets — sorted and duplicate-free regardless of posting order;
* the census memo (per instance and per canonical form) never changes
  a filter or relevant-components answer;
* coalesced followers inherit their leader's race verbatim;
* a catalog holds what it loaded until it is told to unload it.
"""

import hashlib
import random

import pytest

from repro.caching import prepare_cache
from repro.datasets import ppi_like
from repro.graphs import GraphError, LabeledGraph
from repro.indexing import (
    GGSXIndex,
    GrapesIndex,
    PathTrie,
    SuffixTrie,
    coded_path_census,
    label_path_census,
    location_vertices,
)
from repro.matching import Budget
from repro.workload import extract_query, permuted_instance

from ._filter_reference import (
    feature_locations_reference,
    filter_reference,
    stored_locations,
)


def collection(seed=5, num_graphs=5, avg_nodes=50, num_labels=8):
    return ppi_like(
        num_graphs=num_graphs,
        avg_nodes=avg_nodes,
        num_labels=num_labels,
        seed=seed,
    )


def query_corpus(graphs, n=12, twins=True):
    """Random queries, half followed by a permuted isomorphic twin."""
    queries = []
    for seed in range(n):
        rng = random.Random(seed)
        gid = rng.randrange(len(graphs))
        q = extract_query(graphs[gid], 3 + seed % 5, rng)
        queries.append(q)
        if twins and seed % 2 == 0:
            queries.append(
                permuted_instance(q, random.Random(1000 + seed))
            )
    # a query whose labels the collection has never seen
    alien = LabeledGraph.from_edges(
        ["<alien>", "<alien>", "<ghost>"], [(0, 1), (1, 2)]
    )
    queries.append(alien)
    return queries


class TestCensusEquivalence:
    def test_coded_census_matches_reference_classes(self):
        graphs = collection()
        index = GrapesIndex(graphs, max_path_length=2)
        for g in graphs + query_corpus(graphs, n=6, twins=False):
            ref = label_path_census(g, 2)
            codes = index.interner.encode_vertices(g.labels)
            fast = coded_path_census(g, 2, codes)
            assert sum(ref.counts.values()) == sum(fast.counts.values())
            # label-known classes map 1:1 with identical counts
            for seq, count in ref.counts.items():
                coded = index.interner.encode_sequence(seq)
                if coded is not None:
                    assert fast.counts[coded] == count

    def test_locations_match_reference(self):
        graphs = collection(seed=9, num_graphs=3)
        index = GrapesIndex(graphs, max_path_length=2)
        g = graphs[0]
        ref = label_path_census(g, 2, with_locations=True)
        codes = index.interner.encode_vertices(g.labels)
        fast = coded_path_census(g, 2, codes, with_locations=True)
        assert len(fast.locations) == len(ref.locations)
        for seq, locs in ref.locations.items():
            coded = index.interner.encode_sequence(seq)
            assert location_vertices(fast.locations[coded]) == sorted(locs)

    def test_unknown_labels_get_fresh_negative_codes(self):
        graphs = collection(num_graphs=2)
        index = GrapesIndex(graphs, max_path_length=2)
        codes = index.interner.encode_vertices(["<alien>", "<ghost>"])
        assert all(c < 0 for c in codes)
        assert codes[0] != codes[1]
        assert index.interner.encode_sequence(("<alien>",)) is None


class TestFilterEquivalence:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_bitset_equals_reference(self, length):
        graphs = collection()
        for index in (
            GrapesIndex(graphs, max_path_length=length),
            GGSXIndex(graphs, max_path_length=length),
        ):
            for q in query_corpus(graphs):
                fast = index.filter(q)
                ref = filter_reference(index, q)
                assert fast == ref, (index.method_name, q.name)

    def test_sorted_and_duplicate_free(self):
        graphs = collection(seed=2)
        index = GrapesIndex(graphs, max_path_length=2)
        for q in query_corpus(graphs):
            out = index.filter(q)
            assert out == sorted(set(out))

    def test_warm_sealing_does_not_change_answers(self):
        graphs = collection(seed=3)
        lazy = GGSXIndex(graphs, max_path_length=2)
        warm = GGSXIndex(graphs, max_path_length=2)
        warm.warm()
        for q in query_corpus(graphs, n=6):
            assert lazy.filter(q) == warm.filter(q)

    def test_source_graph_survives(self):
        graphs = collection(seed=4)
        index = GrapesIndex(graphs, max_path_length=2)
        for seed in range(6):
            rng = random.Random(seed)
            gid = rng.randrange(len(graphs))
            q = extract_query(graphs[gid], 5, rng)
            assert gid in index.filter(q)


def seed_ftv_filter(trie_cls, graphs, query, max_length):
    """The pre-fast-path pipeline, verbatim, in label space.

    Builds the trie on raw label sequences (no interning) and filters
    with the seed's posting-dict set algebra — the ground truth the
    coded pipeline must reproduce bit for bit.  Direction matters for
    :class:`SuffixTrie` (it inserts suffixes of the canonical
    representative), which is exactly what this guards.
    """
    trie = trie_cls()
    for gid, g in enumerate(graphs):
        census = label_path_census(g, max_length)
        for seq, count in census.counts.items():
            trie.insert(seq, gid, count)
    census = label_path_census(query, max_length)
    alive = None
    for seq, needed in census.counts.items():
        ok = {
            gid
            for gid, p in trie.lookup(seq).items()
            if p.count >= needed
        }
        alive = ok if alive is None else (alive & ok)
        if not alive:
            return []
    return sorted(alive) if alive else []


def quick_filter_stream(graphs):
    """60 queries, half of them permuted isomorphic repeats (serving
    shape): the stream the committed digest was taken over."""
    rng = random.Random(43)
    base = []
    stream = []
    for i in range(60):
        if base and rng.random() < 0.5:
            original = base[rng.randrange(len(base))]
            stream.append(permuted_instance(original, rng))
            continue
        while True:
            gid = rng.randrange(len(graphs))
            try:
                q = extract_query(
                    graphs[gid], 3 + rng.randrange(5), rng, name=f"q{i}"
                )
                break
            except GraphError:
                continue
        base.append(q)
        stream.append(q)
    return stream


def candidates_digest(rows):
    """Order-sensitive digest over (method, query index, candidates)."""
    payload = "\n".join(
        f"{method}:{i}:{','.join(map(str, cands))}"
        for method, i, cands in rows
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_quick_filter_digest_is_the_committed_one():
    """Fast == reference on candidates *and* (Grapes) per-candidate
    location unions over the quick stream, and the candidates hash to
    the digest committed when the fast path landed."""
    graphs = collection(seed=42, num_graphs=8, avg_nodes=40)
    stream = quick_filter_stream(graphs)
    rows = []
    for name, cls in (("Grapes", GrapesIndex), ("GGSX", GGSXIndex)):
        index = cls(graphs, max_path_length=2)
        index.warm()
        stored = stored_locations(index)
        for i, q in enumerate(stream):
            candidates = index.filter(q)
            assert candidates == filter_reference(index, q), (name, i)
            if name == "Grapes":
                for gid in candidates:
                    assert index.feature_locations(q, gid) == (
                        feature_locations_reference(index, q, gid, stored)
                    ), (i, gid)
            rows.append((name, i, candidates))
    assert candidates_digest(rows) == "168056a0420dd2b5"


def step_bills_digest(index, stream):
    """Order-sensitive digest over every verification report of
    ``index.query`` along ``stream``."""
    budget = Budget(max_steps=20_000)
    return hashlib.sha256("\n".join(
        f"{i}:" + ";".join(
            f"{r.graph_id},{int(r.matched)},{r.steps},{int(r.killed)},"
            f"{r.components_tried}"
            for r in index.query(q, budget).reports
        )
        for i, q in enumerate(stream)
    ).encode()).hexdigest()


#: sha256 of the quick stream's step bills, taken while every build
#: still censused every stored graph with locations (commit 874d03a)
QUICK_STEP_BILLS = {
    "Grapes/1": (
        "e497ac4d317744e0a6f8e017097d884a"
        "dff61f819cc063a76849a3369280cc4a"
    ),
    "Grapes/4": (
        "598b02c51616c4ba37e2e36cfaf6f3a4"
        "5eb0b7a6f9a8a2e12d8a7fc9f13818d2"
    ),
    "GGSX": (
        "4f126a149ca3ddd8d23d4b2f2146c946"
        "197df86f421734a3093647fe38676fcb"
    ),
}


def test_quick_stream_step_bills_are_the_pinned_ones():
    """Grapes verifies on components cut from locations it now derives
    on first verify: matches, steps, kills and components tried are
    what they were when the build stored them — for a built index, a
    ``with_threads`` view sharing its trie, and one restored from its
    own blob (which holds no location)."""
    from repro.store.codec import decode_index, encode_index

    graphs = collection(seed=42, num_graphs=8, avg_nodes=40)
    stream = quick_filter_stream(graphs)
    built = GrapesIndex(graphs, max_path_length=2)
    restored = decode_index(encode_index(built), graphs, "Grapes", 2)
    assert not restored.trie.located
    for index in (
        built, built.with_threads(4), restored, restored.with_threads(4),
        GGSXIndex(graphs, max_path_length=2),
    ):
        assert step_bills_digest(index, stream) == (
            QUICK_STEP_BILLS[index.method_name]
        )
    assert built.trie.located == restored.trie.located != set()


class TestLabelOrderEquivalence:
    """Int labels sort differently by repr (repr(10) < repr(2)): the
    interner must stay order-preserving or GGSX's suffix accumulation
    picks different canonical representatives than the label-space
    seed and the candidate sets silently diverge."""

    def _int_labeled(self, trial, labels=(2, 10, 3)):
        from repro.graphs import gnm_graph, uniform_labels

        rng = random.Random(trial)
        graphs = [
            gnm_graph(12, 18, uniform_labels(12, list(labels), rng), rng)
            for _ in range(4)
        ]
        qrng = random.Random(1000 + trial)
        query = extract_query(graphs[qrng.randrange(4)], 4, qrng)
        return graphs, query

    # configurations proven to diverge under a repr-sorted interner
    # (candidate sets differed from the label-space seed's)
    DIVERGENT = [(45, 3), (51, 3), (110, 2), (113, 3), (115, 3)]

    @pytest.mark.parametrize("trial,length", DIVERGENT)
    def test_ggsx_matches_label_space_seed(self, trial, length):
        from repro.indexing.trie import SuffixTrie

        graphs, q = self._int_labeled(trial)
        index = GGSXIndex(graphs, max_path_length=length)
        expected = seed_ftv_filter(SuffixTrie, graphs, q, length)
        assert index.filter(q) == expected

    @pytest.mark.parametrize("trial", [45, 51, 110, 113])
    def test_grapes_matches_label_space_seed(self, trial):
        graphs, q = self._int_labeled(trial)
        index = GrapesIndex(graphs, max_path_length=3)
        expected = seed_ftv_filter(PathTrie, graphs, q, 3)
        assert index.filter(q) == expected


class TestPostingDeterminism:
    """Satellite: candidates are sorted/dup-free for any posting order."""

    @pytest.mark.parametrize("trie_cls", [PathTrie, SuffixTrie])
    def test_mask_ge_independent_of_insertion_order(self, trie_cls):
        rng = random.Random(7)
        postings = [
            (seq, gid, count)
            for seq in [(0,), (1,), (0, 1), (1, 2, 1)]
            for gid, count in [(0, 2), (5, 1), (3, 4), (63, 7), (17, 2)]
        ]
        reference = None
        for _ in range(5):
            rng.shuffle(postings)
            trie = trie_cls()
            for seq, gid, count in postings:
                trie.insert(seq, gid, count)
            probes = {
                (seq, needed): trie.mask_ge(seq, needed)
                for seq, _, _ in postings
                for needed in (1, 2, 4, 8)
            }
            if reference is None:
                reference = probes
            else:
                assert probes == reference

    def test_mask_bits_are_sorted_ids(self):
        trie = PathTrie()
        for gid in (63, 0, 17, 4):
            trie.insert((1, 2), gid, 3)
        mask = trie.mask_ge((1, 2), 2)
        ids = []
        while mask:
            low = mask & -mask
            ids.append(low.bit_length() - 1)
            mask ^= low
        assert ids == [0, 4, 17, 63]

    def test_insert_after_seal_invalidates(self):
        trie = PathTrie()
        trie.insert((1,), 0, 2)
        assert trie.mask_ge((1,), 1) == 1  # seals lazily
        trie.insert((1,), 1, 5)
        assert trie.mask_ge((1,), 1) == 0b11
        assert trie.mask_ge((1,), 3) == 0b10
        assert trie.mask_ge((1,), 6) == 0


class TestCensusMemo:
    def test_same_instance_reuses_census(self):
        graphs = collection(seed=6, num_graphs=3)
        index = GrapesIndex(graphs, max_path_length=2)
        q = extract_query(graphs[0], 5, random.Random(1))
        before = prepare_cache.stats.hits
        index.filter(q)
        index.filter(q)
        index.relevant_components(q, 0)
        assert prepare_cache.stats.hits >= before + 2

    @staticmethod
    def _cycle(n):
        g = LabeledGraph(n, ["A"] * n)
        for i in range(n):
            g.add_edge(i, (i + 1) % n)
        return g

    @staticmethod
    def _path(n):
        g = LabeledGraph(n, ["A"] * n)
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        return g

    @pytest.mark.parametrize("cls", [GrapesIndex, GGSXIndex])
    def test_mutated_stashed_query_never_poisons(self, cls):
        """A client mutating a query after filtering must not be served
        (nor leave behind for look-alikes) the census of what the query
        used to be."""
        graphs = [self._cycle(6), self._path(6)]
        index = cls(graphs, max_path_length=2)
        index.filter(self._cycle(6))
        q = self._path(6)
        index.filter(q)  # census memoized on q
        q.add_edge(0, 5)  # q is now a 6-cycle
        index.filter(self._path(6))
        for probe in (q, self._cycle(6), self._path(6)):
            assert index.filter(probe) == filter_reference(index, probe)

    def test_memoized_verify_matches_reference_components(self):
        graphs = collection(seed=8, num_graphs=3)
        index = GrapesIndex(graphs, max_path_length=2)
        q = extract_query(graphs[0], 5, random.Random(4))
        twin = permuted_instance(q, random.Random(5))
        budget = Budget(max_steps=10**6)
        for query in (q, twin, q):
            report = index.verify(query, 0, budget)
            assert report.matched


class TestCoalescing:
    def _service(self, **kw):
        from repro.service import (
            AdmissionController,
            Service,
            TenantPolicy,
        )

        svc = Service(
            workers=4,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=60_000)
            ),
            **kw,
        )
        svc.load_dataset("yeast", scale="tiny")
        return svc

    @pytest.fixture(scope="class")
    def store(self):
        from repro.harness import build_nfv_graph

        return build_nfv_graph("yeast", "tiny")

    @pytest.fixture(scope="class")
    def opts(self):
        from repro.service import QueryOptions

        return QueryOptions(
            algorithms=("GQL", "SPA"), rewritings=("Orig", "DND")
        )

    def test_follower_inherits_leader_race(self, store, opts):
        svc = self._service()
        q = extract_query(store, 6, random.Random(1))
        twin = permuted_instance(q, random.Random(2))
        leader = svc.submit("yeast", q, tenant="a", options=opts)
        follower = svc.submit("yeast", twin, tenant="b", options=opts)
        assert follower.coalesced and not leader.coalesced
        done = svc.run_until_idle()
        assert follower in done and leader in done
        assert follower.result.coalesced
        assert follower.result.steps == leader.result.steps
        assert follower.result.winner == leader.result.winner
        assert follower.result.found == leader.result.found
        assert dict(follower.result.per_variant_steps) == dict(
            leader.result.per_variant_steps
        )
        assert svc.admission.stats()["coalesced"] == 1

    def test_disabled_coalescing_races_twice(self, store, opts):
        svc = self._service(coalesce=False)
        q = extract_query(store, 6, random.Random(3))
        twin = permuted_instance(q, random.Random(4))
        t1 = svc.submit("yeast", q, options=opts)
        t2 = svc.submit("yeast", twin, options=opts)
        assert not t2.coalesced
        svc.run_until_idle()
        assert svc.admission.stats()["coalesced"] == 0
        assert svc.admission.stats()["admitted"] == 2

    def test_different_budgets_do_not_coalesce(self, store, opts):
        svc = self._service()
        q = extract_query(store, 6, random.Random(5))
        twin = permuted_instance(q, random.Random(6))
        svc.submit("yeast", q, options=opts, budget_steps=60_000)
        t2 = svc.submit("yeast", twin, options=opts, budget_steps=50_000)
        assert not t2.coalesced  # context differs: not the same race
        svc.run_until_idle()

    def test_coalesce_backlog_is_bounded(self, store, opts):
        """Followers count against max_queued: identical-query floods
        shed instead of accumulating unbounded ticket state."""
        from repro.service import (
            AdmissionController,
            Service,
            TenantPolicy,
            TicketState,
        )

        svc = Service(
            workers=4,
            admission=AdmissionController(
                default_policy=TenantPolicy(
                    max_queued=2, step_budget=60_000
                )
            ),
        )
        svc.load_dataset("yeast", scale="tiny")
        q = extract_query(store, 6, random.Random(8))
        leader = svc.submit("yeast", q, options=opts)
        followers = [
            svc.submit(
                "yeast",
                permuted_instance(q, random.Random(100 + i)),
                options=opts,
            )
            for i in range(4)
        ]
        attached = [t for t in followers if t.coalesced]
        shed = [t for t in followers if t.state is TicketState.REJECTED]
        assert len(attached) == 2  # the max_queued allowance
        assert len(shed) == 2
        assert all("coalesce backlog" in t.reject_reason for t in shed)
        svc.run_until_idle()
        assert all(t.done for t in [leader] + attached)
        # resolved followers release their backlog slots
        late = svc.submit(
            "yeast",
            permuted_instance(q, random.Random(999)),
            options=opts,
        )
        assert late.cache_hit  # leader's result is cached by now

    def test_coalesced_run_is_deterministic(self, store, opts):
        from repro.service import results_digest

        digests = []
        for _ in range(2):
            svc = self._service()
            q = extract_query(store, 6, random.Random(7))
            tickets = [
                svc.submit(
                    "yeast",
                    permuted_instance(q, random.Random(i)),
                    tenant=f"t{i % 3}",
                    options=opts,
                )
                for i in range(6)
            ]
            svc.run_until_idle()
            assert all(t.done for t in tickets)
            digests.append(results_digest(tickets))
        assert digests[0] == digests[1]


class TestCatalogEviction:
    def test_explicit_unload_stays_final(self):
        from repro.service import DatasetCatalog

        cat = DatasetCatalog()
        cat.load("yeast", scale="tiny", algorithms=("GQL",))
        cat.unload("yeast")
        with pytest.raises(KeyError):
            cat.get("yeast")

    def test_no_watermark_no_eviction(self):
        from repro.service import DatasetCatalog

        cat = DatasetCatalog()
        cat.load("yeast", scale="tiny", algorithms=("GQL",))
        cat.load("ppi", scale="tiny")
        assert cat.datasets() == ["ppi", "yeast"]

    def test_ftv_warmup_reported(self):
        from repro.service import DatasetCatalog

        cat = DatasetCatalog()
        entry = cat.load("ppi", scale="tiny")
        assert entry.warm_stats["sealed_nodes"] > 0
        report = entry.memory_report()
        assert report["ftv_warm"]["sealed_nodes"] > 0
