"""Shard routing: pruned/ordered fan-out, rebalance.

The load-bearing claim: routing changes *where work happens*, never
*what is answered* — ``answers_digest`` is bit-for-bit invariant
across {1 shard, N shards unrouted, N shards routed, N shards
post-rebalance} in full mode, and ``decisions_digest`` is invariant in
decision mode (where witness subsets legitimately differ).  The
pruning tests are adversarial on purpose: labels the collection has
never seen, impossible multiplicities, an index coded in another label
space and NFV home shards must all leave pruning exact (the generated
version is in ``tests/test_properties.py``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.caching import CacheStats, prepare_cache
from repro.graphs import LabeledGraph
from repro.harness import build_ftv_graphs
from repro.indexing import FTVIndex, GrapesIndex, coded_path_census
from repro.scenarios import load_scenario_file
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
from repro.service.planner import SERVED_PATH_LENGTH
from repro.service.routing import RoutePlan
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
        SERVED_PATH_LENGTH,
        entry.interner.encode_vertices(query.labels),
    ).counts


def stream_queries(graphs, per_tenant=10):
    return [
        mq.query.graph
        for stream in ftv_streams(graphs, per_tenant=per_tenant).values()
        for mq in stream
    ]


def run(shards, routing, graphs, options=FTV_OPTS, seed=9, **kw):
    svc = ftv_service(shards, routing, **kw)
    report = run_closed_loop(
        svc, "ppi", ftv_streams(graphs, seed=seed), options=options,
        concurrency=2,
    )
    return svc, report


# ----------------------------------------------------------------------
# exact pruning against the real filters
# ----------------------------------------------------------------------

class TestExactPruning:
    @pytest.mark.parametrize("strategy", ["size_balanced", "hash"])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_prune_iff_empty_filter(self, ppi_graphs, shards, strategy):
        """A shard is pruned exactly when its own filter is empty (the
        lowest involved shard kept when all are), and the plan hands
        every probed shard the candidates that filter returns."""
        cat = ShardedCatalog(num_shards=shards, assignment=strategy)
        entry = cat.load("ppi", scale="tiny")
        involved = entry.involved_shards()
        pruned = 0
        for query in stream_queries(ppi_graphs):
            plan = entry.router.plan(census_counts(entry, query), involved)
            found = {
                shard: entry.shard_entry(shard).ftv_index.filter(query)
                for shard in involved
            }
            survivors = tuple(s for s in involved if found[s])
            if survivors:
                assert plan.order == survivors
                assert plan.pruned == tuple(
                    s for s in involved if not found[s]
                )
            else:
                assert plan.order == involved[:1]
                assert plan.pruned == involved[1:]
            assert plan.candidates == found
            pruned += len(plan.pruned)
        # the traffic is not vacuous: some (query, shard) pair is pruned
        assert pruned > 0

    def test_decision_mode_races_the_richest_shard_first(self, ppi_graphs):
        """Decision mode orders the survivors by descending candidate
        count, shard id breaking ties, and stages them; full mode prunes
        the same shards but keeps ascending order and gang-dispatches."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        involved = entry.involved_shards()
        reordered = 0
        for query in stream_queries(ppi_graphs):
            counts = census_counts(entry, query)
            full = entry.router.plan(counts, involved)
            decide = entry.router.plan(counts, involved, decision_only=True)
            assert full.order == tuple(sorted(full.order))
            assert not full.staged
            assert decide.pruned == full.pruned
            assert decide.candidates == full.candidates
            assert decide.order == tuple(sorted(
                full.order, key=lambda s: (-len(full.candidates[s]), s)
            ))
            assert decide.staged == (len(decide.order) > 1)
            reordered += decide.order != full.order
        assert reordered > 0

    def test_a_fan_out_of_one_is_not_probed(self, ppi_graphs, monkeypatch):
        """One involved shard has nothing to prune or order: the plan
        probes nothing and that shard's race filters for itself."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        monkeypatch.setattr(
            FTVIndex, "probe",
            lambda *a, **k: pytest.fail("a fan-out of one was probed"),
        )
        counts = census_counts(entry, ppi_graphs[0])
        for decision_only in (False, True):
            assert entry.router.plan(
                counts, (1,), decision_only
            ) == RoutePlan(order=(1,))

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
# the router's handles across mutations and layout changes
# ----------------------------------------------------------------------

class TestRouterUnderMutations:
    def _newcomer(self, ppi_graphs):
        """A collection graph with one label nothing in ``ppi`` carries,
        so only the shard it is added to can hold a candidate for it."""
        return relabelled(ppi_graphs[0], "!newcomer")

    def _plan(self, entry, query):
        return entry.router.plan(
            census_counts(entry, query), entry.involved_shards()
        )

    def test_an_add_patches_the_index_the_router_holds(self, ppi_graphs):
        """An add needs no refresh: the router's handle is the shard's
        own index, which the add patched, so the newcomer is a
        candidate at once and the collection's mutation epoch moved by
        one."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        newcomer = self._newcomer(ppi_graphs)
        before = self._plan(entry, newcomer)
        assert (before.order, before.pruned) == ((0,), (1,))
        held, epoch = entry.router.indexes[1], cat.mutation_epoch
        gid = cat.add_graph("ppi", newcomer, shard=1)
        assert entry.router.indexes[1] is held
        assert cat.mutation_epoch == epoch + 1
        after = self._plan(entry, newcomer)
        assert (after.order, after.pruned) == ((1,), (0,))
        assert after.candidates[1] == [entry.assignment[1].index(gid)]

    def test_a_remove_prunes_a_shard_left_without_candidates(
        self, ppi_graphs
    ):
        """A remove tightens routing at once: the tombstoned graph stops
        being a candidate, and the shard whose only candidate it was is
        pruned again."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        newcomer = self._newcomer(ppi_graphs)
        gid = cat.add_graph("ppi", newcomer, shard=1)
        epoch = cat.mutation_epoch
        cat.remove_graph("ppi", gid)
        assert cat.mutation_epoch == epoch + 1
        plan = self._plan(entry, newcomer)
        assert (plan.order, plan.pruned) == ((0,), (1,))
        assert plan.candidates == {0: [], 1: []}

    def test_a_reassign_hands_the_router_every_new_partition(
        self, ppi_graphs
    ):
        """A rebalance rebuilds the moved partitions; the router then
        holds exactly those indexes, and routes by them."""
        cat = ShardedCatalog(num_shards=2, assignment="hash")
        entry = cat.load("ppi", scale="tiny")
        new = [list(ids) for ids in entry.assignment]
        new[1].append(new[0].pop())
        assert set(cat.reassign("ppi", new)) == {0, 1}
        for shard in entry.involved_shards():
            assert entry.router.indexes[shard] is (
                entry.shard_entry(shard).ftv_index
            )
        for query in stream_queries(ppi_graphs, per_tenant=4):
            plan = self._plan(entry, query)
            assert plan.candidates == {
                shard: entry.shard_entry(shard).ftv_index.filter(query)
                for shard in entry.involved_shards()
            }

    def test_as_metrics_reports_the_handles_held(self, ppi_graphs):
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        router = entry.router
        assert router.as_metrics() == {
            "labels": len(entry.interner),
            "indexed": [0, 1],
        }
        router.refresh(1, None)
        assert router.as_metrics() == {
            "labels": len(entry.interner),
            "indexed": [0],
        }


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
        # a head start actually spared sibling work, and the routed
        # run never wastes more fanned steps than the unrouted one
        assert svc.fanout.waves_skipped.value > 0
        assert svc.fanout.fanout_waste.value <= (
            d2u.metrics["service.fanout_waste"]
        )

    def test_the_decision_routed_scenario_is_pinned_ticket_by_ticket(
        self,
    ):
        """The committed ``decision-routed`` run, built and driven as
        the scenario runner does: every ticket's outcome and latency
        and the whole ``stats()`` are pinned, so a change to how a
        routed decision fan-out is staged may move only its merged
        ``steps``."""
        config = load_scenario_file(
            Path(__file__).resolve().parent.parent
            / "scenarios" / "decision-routed.yaml"
        )
        prepare_cache.clear()
        prepare_cache.stats = CacheStats()
        svc = config.build_service()
        report = config.drive(svc, config.tenant_streams(svc))
        rows = [
            (
                t.tenant, t.query.name, t.state.value, t.latency,
                t.result.found, t.result.killed, t.result.winner_label,
                t.result.from_cache,
            )
            for t in report.tickets
        ]
        stats = svc.stats()

        def digest(value):
            payload = json.dumps(value, sort_keys=True, default=str)
            return hashlib.sha256(payload.encode()).hexdigest()[:16]

        assert len(rows) == 60
        assert stats["routing"] == {
            "enabled": True, "routed": 42, "shards_pruned": 21,
            "waves_skipped": 15, "shard_cancelled": 4,
        }
        assert stats["fanout_waste"] == 834
        assert digest(rows) == "c81fcb0524203df6"
        assert digest(stats) == "9d37a76a7b145339"

    def test_routed_run_deterministic(self, ppi_graphs):
        _, a = run(2, True, ppi_graphs, options=DEC_OPTS)
        _, b = run(2, True, ppi_graphs, options=DEC_OPTS)
        assert a.digest == b.digest
        assert a.answers == b.answers

    def test_routing_off_is_bit_for_bit_unrouted(self, ppi_graphs):
        """`routing=False` must reproduce the unrouted fan-out exactly —
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
        [plan] = [
            s for s in svc.trace(ticket.id).spans if s.name == "route_plan"
        ]
        assert len(plan.attrs["pruned"]) == 1
        assert svc.planner.shards_pruned.value == 1

    def test_missing_index_fails_closed(self, ppi_graphs):
        """A shard the router holds no index for must race, never be
        pruned — pruning is only ever justified by an empty probe."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        # a query shard 0 has no candidate for
        q = ftv_streams(ppi_graphs)["tenant0"][3].query.graph
        counts, involved = census_counts(entry, q), entry.involved_shards()
        assert entry.router.plan(counts, involved).pruned == (0,)
        entry.router.indexes.pop(0)
        plan = entry.router.plan(counts, involved)
        assert plan.order == (0, 1) and plan.pruned == ()
        assert 0 not in plan.candidates

    def test_a_dark_shard_keeps_no_index(self, ppi_graphs):
        """Going dark drops the shard's handle together with its
        partition; coming back hands the router the re-warmed index."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        cat.set_serving(0, False)
        assert sorted(entry.router.indexes) == [1]
        cat.set_serving(0, True)
        assert entry.router.indexes[0] is entry.shard_entry(0).ftv_index

    def test_an_index_in_another_code_space_is_not_kept(self, ppi_graphs):
        """A probe reads the census's codes as they stand, so an index
        that codes some label differently than the collection must not
        be probed at all: ``refresh`` leaves the shard without an index
        and the plan races it.  A standalone build that agrees label
        for label (every ``ppi`` partition carries all the labels) is
        kept and prunes as the catalog's own index does."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        router = entry.router
        part = [entry.graphs[g] for g in entry.assignment[0]]
        queries = [
            mq.query.graph for mq in ftv_streams(ppi_graphs)["tenant0"]
        ]
        own = [
            router.plan(census_counts(entry, q), entry.involved_shards())
            for q in queries
        ]
        assert any(plan.pruned == (0,) for plan in own)
        agreeing = GrapesIndex(part, max_path_length=3)
        assert agreeing.interner is not entry.interner
        router.refresh(0, agreeing)
        assert router.indexes[0] is agreeing
        assert own == [
            router.plan(census_counts(entry, q), entry.involved_shards())
            for q in queries
        ]
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
        assert 0 not in router.indexes
        for q in queries:
            plan = router.plan(
                census_counts(entry, q), entry.involved_shards()
            )
            assert 0 in plan.order and 0 not in plan.pruned

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
        new = [list(ids) for ids in before]
        gid = new[0][-1]
        new[0].remove(gid)
        new[1].append(gid)
        changed = cat.reassign("ppi", new)
        assert set(changed) == {0, 1}
        assert entry.assignment != before
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
