"""Shard-routing soundness: sketches, pruned/ordered fan-out, rebalance.

The load-bearing claim (ISSUE 5 acceptance): sketch routing changes
*where work happens*, never *what is answered* — ``answers_digest`` is
bit-for-bit invariant across {1 shard, N shards unrouted, N shards
routed, N shards post-rebalance} in full mode, and ``decisions_digest``
is invariant in decision mode (where witness subsets legitimately
differ).  The sketch tests are adversarial on purpose: forced bucket
collisions, labels the collection has never seen, an index coded in
another label space and NFV home shards must all leave pruning sound.
"""

import pytest

from repro.graphs import LabeledGraph
from repro.harness import build_ftv_graphs
from repro.indexing import GrapesIndex, coded_path_census
from repro.indexing.sketch import (
    SKETCH_TIERS,
    FeatureSketch,
    bucket_of,
    tier_index,
)
from repro.scheduling import skew_ratio
from repro.service import (
    AdmissionController,
    QueryOptions,
    Rebalancer,
    Service,
    ShardedCatalog,
    TenantPolicy,
    answers_digest,
    decisions_digest,
    run_closed_loop,
)
from repro.workload import default_tenant_mixes, generate_tenant_stream

from .conftest import relabelled

BUDGET = 60_000
FTV_OPTS = QueryOptions(rewritings=("Orig", "DND"))
DEC_OPTS = QueryOptions(rewritings=("Orig", "DND"), decision_only=True)


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards, routing, dataset="ppi", **kw):
    svc = Service(
        workers=4,
        shards=shards,
        routing=routing,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        **kw,
    )
    svc.load_dataset(dataset, scale="tiny")
    return svc


def ftv_streams(graphs, tenants=2, per_tenant=8, seed=9, repeat=0.3):
    mixes = default_tenant_mixes(
        tenants, per_tenant, sizes=(4, 6), repeat_fraction=repeat
    )
    return {
        m.tenant: generate_tenant_stream(graphs, m, seed=seed)
        for m in mixes
    }


def census_counts(entry, query):
    """``query``'s census in ``entry``'s label code space — what the
    service takes once per ticket and hands the router."""
    return coded_path_census(
        query,
        entry.max_path_length,
        entry.interner.encode_vertices(query.labels),
    ).counts


def run(shards, routing, graphs, options=FTV_OPTS, seed=9, **kw):
    svc = ftv_service(shards, routing, **kw)
    report = run_closed_loop(
        svc, "ppi", ftv_streams(graphs, seed=seed), options=options,
        concurrency=2,
    )
    return svc, report


# ----------------------------------------------------------------------
# sketch unit behaviour
# ----------------------------------------------------------------------

class TestSketch:
    def test_tier_index_tiers(self):
        assert tier_index(1) == 0
        assert tier_index(2) == 1
        assert tier_index(3) == 1
        assert tier_index(4) == 2
        # beyond the top tier: saturates instead of overflowing
        assert tier_index(10**9) == len(SKETCH_TIERS) - 1
        with pytest.raises(ValueError):
            tier_index(0)

    def test_bucket_of_deterministic_and_bounded(self):
        seqs = [(0,), (1, 2, 3), (-1,), (5, 5), (2, 1)]
        for seq in seqs:
            b = bucket_of(seq, 64)
            assert 0 <= b < 64
            assert b == bucket_of(seq, 64)
        # direction matters pre-canonicalisation: the census always
        # hands the sketch canonical sequences, so this is fine
        assert bucket_of((0,), 1) == 0

    def test_from_postings_sets_downward_closed_masks(self):
        class P:
            def __init__(self, count):
                self.count = count

        sketch = FeatureSketch.from_postings(
            [((0,), {0: P(5)})], graph_count=1, num_buckets=4,
        )
        mask = sketch.buckets[bucket_of((0,), 4)]
        # max count 5 -> tiers 1, 2, 4 set; 8 clear
        assert mask == 0b111
        assert sketch.score({(0,): 1}) is not None
        assert sketch.score({(0,): 4}) is not None
        # needing 5 probes tier 4 (largest tier <= 5): may-admit
        assert sketch.score({(0,): 5}) is not None
        # needing 8 probes tier 8: provably absent
        assert sketch.score({(0,): 8}) is None

    def test_score_margins_order_richer_shards_first(self):
        class P:
            def __init__(self, count):
                self.count = count

        rich = FeatureSketch.from_postings(
            [((0,), {0: P(16)})], graph_count=1, num_buckets=4,
        )
        poor = FeatureSketch.from_postings(
            [((0,), {0: P(2)})], graph_count=1, num_buckets=4,
        )
        counts = {(0,): 2}
        assert rich.score(counts) > poor.score(counts)


# ----------------------------------------------------------------------
# soundness against the real filters
# ----------------------------------------------------------------------

class TestSketchSoundness:
    @pytest.mark.parametrize("num_buckets", [1, 2, 256])
    def test_prune_implies_empty_filter(self, ppi_graphs, num_buckets):
        """A sketch veto must always mean an empty candidate set.

        ``num_buckets=1`` forces *every* feature code to collide —
        the adversarial case: collisions may only weaken pruning
        (set spurious bits), never produce a wrong veto.
        """
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        router = entry.router
        router.num_buckets = num_buckets
        for shard in entry.involved_shards():
            router.refresh(
                shard, entry.shard_entry(shard).ftv_index
            )
        streams = ftv_streams(ppi_graphs, per_tenant=10)
        queries = [
            mq.query.graph for s in streams.values() for mq in s
        ]
        vetoes = 0
        for query in queries:
            counts = census_counts(entry, query)
            for shard in entry.involved_shards():
                sketch = router.sketches[shard]
                if sketch.score(counts) is None:
                    vetoes += 1
                    index = entry.shard_entry(shard).ftv_index
                    assert index.filter(query) == []
                    assert index.probe(counts) == []
        # with one bucket the sketch may veto nothing; with many it
        # may too on this tiny, feature-dense collection — either way
        # every veto that did happen was proven above
        assert vetoes >= 0

    def test_unknown_label_routes_to_single_witness_shard(self, ppi_graphs):
        """Query labels the collection never saw prune every shard."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        q = LabeledGraph(3, ["ALIEN-0", "ALIEN-1", "ALIEN-2"])
        q.add_edge(0, 1)
        q.add_edge(1, 2)
        plan = entry.router.plan(
            census_counts(entry, q), entry.involved_shards()
        )
        assert len(plan.order) == 1
        assert plan.order == (entry.involved_shards()[0],)
        assert set(plan.pruned) == set(entry.involved_shards()[1:])
        # and the witness shard's filter is indeed empty
        index = entry.shard_entry(plan.order[0]).ftv_index
        assert index.filter(q) == []

    def test_high_multiplicity_feature_prunes_soundly(self, ppi_graphs):
        """A census demanding impossible counts vetoes every shard."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        label = ppi_graphs[0].label(0)
        # a star of one label: the centre vertex yields paths with
        # multiplicities real shards cannot reach
        n = 9
        q = LabeledGraph(n, [label] * n)
        for v in range(1, n):
            q.add_edge(0, v)
        plan = entry.router.plan(
            census_counts(entry, q), entry.involved_shards()
        )
        for shard in plan.pruned:
            index = entry.shard_entry(shard).ftv_index
            assert index.filter(q) == []

    def test_nfv_entries_are_never_routed(self):
        svc = Service(workers=4, shards=3, routing=True)
        svc.load_dataset("yeast", scale="tiny")
        entry = svc.catalog.get("yeast")
        assert entry.router is None
        assert len(entry.involved_shards()) == 1
        graphs = entry.graphs
        streams = ftv_streams(graphs, per_tenant=4)
        report = run_closed_loop(
            svc, "yeast", streams, options=QueryOptions(), concurrency=1
        )
        assert svc.planner.routed_queries.value == 0
        assert all(t.fanout <= 1 for t in report.completed)


# ----------------------------------------------------------------------
# sketch maintenance under adds (the rows hand-off)
# ----------------------------------------------------------------------

class TestSketchUnderAdds:
    def _grown(self, ppi_graphs, monkeypatch=None):
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        trie = entry.shard_entry(0).ftv_index.trie
        if monkeypatch is not None:
            # from here on nothing may walk the shard trie
            monkeypatch.setattr(
                type(trie), "iter_postings",
                lambda self: pytest.fail("note_add walked the trie"),
            )
        for seed in range(3):
            g = ppi_graphs[seed % len(ppi_graphs)]
            order = list(range(g.order))
            order = order[seed + 1:] + order[:seed + 1]
            cat.add_graph("ppi", g.permuted(order), shard=0)
        return cat, entry

    def test_features_stat_counts_posting_carrying_nodes(self, ppi_graphs):
        """Three adds of graphs the shard mostly shares its features
        with: ``features`` is the trie's node count, not the sum of
        every newcomer's feature count on top of the first fold."""
        cat, entry = self._grown(ppi_graphs)
        index = entry.shard_entry(0).ftv_index
        stats = entry.router.as_metrics()["sketches"]["0"]
        assert stats["features"] == sum(
            1 for _ in index.trie.iter_postings()
        )
        assert stats["graphs"] == len(index.graphs)
        # a remove tightens nothing: the stat stays, now an upper bound
        cat.remove_graph("ppi", entry.assignment[0][-1])
        assert entry.router.as_metrics()["sketches"]["0"] == stats
        assert stats["features"] >= index.trie.feature_count

    def test_note_add_never_walks_the_trie(self, ppi_graphs, monkeypatch):
        _, entry = self._grown(ppi_graphs, monkeypatch)
        monkeypatch.undo()
        # and what it folded from the rows admits whatever a fold of
        # the grown shard admits
        index = entry.shard_entry(0).ftv_index
        grown = entry.router.sketches[0]
        entry.router.refresh(0, index)
        fresh = entry.router.sketches[0]
        assert all(
            f & ~g == 0 for f, g in zip(fresh.buckets, grown.buckets)
        )
        assert fresh.as_metrics()["features"] == (
            grown.as_metrics()["features"]
        )


# ----------------------------------------------------------------------
# service-level digest invariance
# ----------------------------------------------------------------------

class TestRoutedServing:
    def test_full_mode_answers_invariant_across_layouts(self, ppi_graphs):
        _, r1 = run(1, False, ppi_graphs)
        _, r2u = run(2, False, ppi_graphs)
        _, r2r = run(2, True, ppi_graphs)
        _, r3r = run(3, True, ppi_graphs)
        assert r1.answers == r2u.answers == r2r.answers == r3r.answers
        assert r1.decisions == r2r.decisions

    def test_decision_mode_found_invariant(self, ppi_graphs):
        _, d1 = run(1, False, ppi_graphs, options=DEC_OPTS)
        _, d2u = run(2, False, ppi_graphs, options=DEC_OPTS)
        svc, d2r = run(2, True, ppi_graphs, options=DEC_OPTS)
        assert d1.decisions == d2u.decisions == d2r.decisions
        # staged waves actually deferred sibling work, and the routed
        # run never wastes more fanned steps than the unrouted one
        assert svc.fanout.waves_skipped.value > 0
        assert svc.fanout.fanout_waste.value <= (
            d2u.service_stats["fanout_waste"]
        )

    def test_routed_run_deterministic(self, ppi_graphs):
        _, a = run(2, True, ppi_graphs, options=DEC_OPTS)
        _, b = run(2, True, ppi_graphs, options=DEC_OPTS)
        assert a.digest == b.digest
        assert a.answers == b.answers

    def test_routing_off_is_bit_for_bit_unrouted(self, ppi_graphs):
        """`routing=False` must reproduce the PR 4 fan-out exactly —
        including bills and latencies, not just answers."""
        _, off = run(2, False, ppi_graphs)
        svc = ftv_service(2, False)
        assert svc.planner.routing is False
        _, off2 = run(2, False, ppi_graphs)
        assert off.digest == off2.digest

    def test_pruned_shards_never_race(self, ppi_graphs):
        svc = ftv_service(2, True)
        q = LabeledGraph(2, ["ALIEN-A", "ALIEN-B"])
        q.add_edge(0, 1)
        ticket = svc.submit("ppi", q, options=FTV_OPTS)
        svc.run_until_idle()
        assert ticket.result.found is False
        assert ticket.fanout == 1
        assert ticket.pruned == 1
        assert svc.planner.shards_pruned.value == 1

    def test_missing_sketch_fails_closed(self, ppi_graphs):
        """A shard without a sketch must race, never be pruned —
        pruning is only ever justified by an explicit veto."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        entry.router.sketches.pop(0)
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        plan = entry.router.plan(
            census_counts(entry, q), entry.involved_shards()
        )
        assert 0 in plan.order
        assert 0 not in plan.pruned

    def test_an_index_in_another_code_space_gets_no_sketch(
        self, ppi_graphs
    ):
        """The fold reads a trie's coded rows as they stand, so an
        index that codes some label differently than the collection
        must not be folded at all: ``refresh`` leaves the shard
        without a sketch and the plan races it.  A standalone build
        that agrees label for label (every ``ppi`` partition carries
        all the labels) folds to the very sketch the catalog's did."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        router = entry.router
        part = [entry.graphs[g] for g in entry.assignment[0]]
        own = router.sketches[0]
        agreeing = GrapesIndex(part, max_path_length=3)
        assert agreeing.interner is not entry.interner
        router.refresh(0, agreeing)
        assert router.sketches[0].buckets == own.buckets
        # relabel one vertex: the standalone interner sorts the alien
        # label first and shifts every code the collection assigns
        foreign = GrapesIndex(
            [relabelled(part[0], "!alien")] + part[1:], max_path_length=3
        )
        assert (
            foreign.interner.code_of.items()
            - entry.interner.code_of.items()
        )
        router.refresh(0, foreign)
        assert 0 not in router.sketches
        for mq in ftv_streams(ppi_graphs)["tenant0"]:
            plan = router.plan(
                census_counts(entry, mq.query.graph),
                entry.involved_shards(),
            )
            assert 0 in plan.order and 0 not in plan.pruned

    def test_reassign_mid_wave_raises(self, ppi_graphs):
        """A rebalance violating the quiesce contract while waves are
        in flight fails loudly instead of racing the wrong layout."""
        svc = ftv_service(2, True)
        entry = svc.catalog.get("ppi")
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        ticket = svc.submit("ppi", q, options=DEC_OPTS)
        assert not ticket.done  # queued: its flight is open
        # a deferred wave planned at the current epoch...
        flight = svc.fanout.flights[ticket.id]
        flight.waves, flight.epoch = [(1,)], entry.router.epoch
        # ...must refuse to launch once the layout moved under it
        entry.router.bump()
        with pytest.raises(RuntimeError, match="quiesce"):
            svc.fanout.advance_wave(flight)

    def test_coalescing_still_works_routed(self, ppi_graphs):
        svc = ftv_service(2, True)
        [mq] = ftv_streams(ppi_graphs, tenants=1, per_tenant=1)[
            "tenant0"
        ][:1]
        a = svc.submit("ppi", mq.query.graph, options=DEC_OPTS)
        b = svc.submit("ppi", mq.query.graph, options=DEC_OPTS)
        svc.run_until_idle()
        assert b.result.coalesced
        assert a.result.found == b.result.found


# ----------------------------------------------------------------------
# rebalancing
# ----------------------------------------------------------------------

class TestRebalance:
    def test_skew_ratio(self):
        assert skew_ratio([]) == 1.0
        assert skew_ratio([0, 0]) == 1.0
        assert skew_ratio([5, 5]) == 1.0
        assert skew_ratio([10, 5]) == 2.0
        assert skew_ratio([10, 0]) == float("inf")
        with pytest.raises(ValueError):
            skew_ratio([-1, 2])

    def test_reassign_moves_graphs_and_bumps_epoch(self, ppi_graphs):
        cat = ShardedCatalog(num_shards=2, assignment="hash")
        entry = cat.load("ppi", scale="tiny")
        before = entry.assignment
        epoch = entry.router.epoch
        new = [list(ids) for ids in before]
        gid = new[0][-1]
        new[0].remove(gid)
        new[1].append(gid)
        changed = cat.reassign("ppi", new)
        assert set(changed) == {0, 1}
        assert entry.assignment != before
        assert entry.router.epoch == epoch + 1
        assert cat.reassignments == 1
        assert cat.migrated_graphs == 1
        # both shards re-registered with matching graph counts
        for shard in (0, 1):
            sub = entry.shard_entry(shard)
            assert len(sub.graphs) == len(entry.assignment[shard])

    def test_reassign_validates(self, ppi_graphs):
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        with pytest.raises(ValueError, match="cover every graph"):
            cat.reassign("ppi", [(0,), (1,)])
        with pytest.raises(ValueError, match="shards"):
            cat.reassign("ppi", [(0, 1, 2)])
        assert cat.reassign("ppi", entry.assignment) == ()
        svc = Service(workers=4, shards=2)
        svc.load_dataset("yeast", scale="tiny")
        with pytest.raises(ValueError, match="home shard"):
            svc.catalog.reassign("yeast", [(0,), ()])

    def test_cli_rebalance_flag_validation(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="topology.rebalance_every"):
            main(
                "serve --dataset ppi --scale tiny --queries 2 "
                "--shards 2 --rebalance --rebalance-every -1".split()
            )
        with pytest.raises(SystemExit, match="needs topology.rebalance"):
            main(
                "serve --dataset ppi --scale tiny --queries 2 "
                "--shards 2 --rebalance-every 5".split()
            )
        with pytest.raises(SystemExit, match="shards"):
            main(
                "serve --dataset ppi --scale tiny --queries 2 "
                "--rebalance".split()
            )

    def test_rebalancer_requires_quiesce(self, ppi_graphs):
        svc = ftv_service(2, False)
        reb = Rebalancer(svc, min_window_steps=1)
        [mq] = ftv_streams(ppi_graphs, tenants=1, per_tenant=1)[
            "tenant0"
        ][:1]
        svc.submit("ppi", mq.query.graph, options=FTV_OPTS)
        # queued but not yet pumped: mid-flight, no quiesce, no action
        assert not svc.idle
        assert reb.maybe_rebalance() == []
        svc.run_until_idle()
        assert svc.idle

    def test_rebalanced_answers_invariant(self, ppi_graphs):
        _, base = run(1, False, ppi_graphs)
        svc = ftv_service(2, False, assignment="hash")
        reb = Rebalancer(svc, min_window_steps=64, skew_threshold=1.0)
        report = run_closed_loop(
            svc,
            "ppi",
            ftv_streams(ppi_graphs),
            options=FTV_OPTS,
            concurrency=2,
            rebalancer=reb,
            rebalance_every=4,
        )
        assert report.answers == base.answers
        assert reb.rebalances.value >= 1
        assert reb.migrations
        assert svc.catalog.reassignments >= 1
        # migrated layout still answers correctly after the run too
        q = ftv_streams(ppi_graphs, seed=11)["tenant0"][0].query.graph
        sharded = svc.submit("ppi", q, options=FTV_OPTS)
        svc.run_until_idle()
        single = Service(workers=4)
        single.load_dataset("ppi", scale="tiny")
        solo = single.submit("ppi", q, options=FTV_OPTS)
        single.run_until_idle()
        assert sharded.result.found == solo.result.found
        assert (
            sharded.result.matching_ids == solo.result.matching_ids
        )

    def test_rebalance_plus_routing_invariant(self, ppi_graphs):
        _, base = run(1, False, ppi_graphs)
        svc = ftv_service(2, True, assignment="hash")
        reb = Rebalancer(svc, min_window_steps=64, skew_threshold=1.0)
        report = run_closed_loop(
            svc,
            "ppi",
            ftv_streams(ppi_graphs),
            options=FTV_OPTS,
            concurrency=2,
            rebalancer=reb,
            rebalance_every=4,
        )
        assert report.answers == base.answers


# ----------------------------------------------------------------------
# prepare-cache metrics truthfulness (satellite)
# ----------------------------------------------------------------------

class TestPrepareCacheTruthfulness:
    def test_served_reuse_registers_as_hits(self):
        """Catalog-warmed indexes must show up as prepare-cache hits
        when serving reuses them — the '0 hits despite warm indexes'
        bench metric was lying."""
        from repro.caching import prepare_cache

        svc = Service(workers=4)
        svc.load_dataset("yeast", scale="tiny")
        hits_before = prepare_cache.stats.hits
        graphs = svc.catalog.get("yeast").graphs
        streams = ftv_streams(graphs, tenants=1, per_tenant=3, repeat=0.0)
        run_closed_loop(
            svc, "yeast", streams, options=QueryOptions(), concurrency=1
        )
        assert prepare_cache.stats.hits > hits_before

    def test_ftv_graph_index_reuse_registers(self, ppi_graphs):
        from repro.caching import prepare_cache

        index = GrapesIndex(list(ppi_graphs), max_path_length=2)
        misses_before = prepare_cache.stats.misses
        a = index.graph_index(0)
        hits_before = prepare_cache.stats.hits
        b = index.graph_index(0)
        assert a is b
        assert prepare_cache.stats.misses > misses_before
        assert prepare_cache.stats.hits > hits_before
