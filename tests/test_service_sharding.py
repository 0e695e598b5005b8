"""Sharded catalog + fan-out/merge serving tests.

The load-bearing claim (ISSUE 4 acceptance): sharded serving returns
bit-for-bit identical decision answers and cache-visible results to the
single-catalog path — `found`, `num_embeddings`, and global
`matching_ids` never depend on the shard layout — while bills (steps,
winners, latencies) are historical and may differ.
"""

import pytest

from repro.harness import build_ftv_graphs, build_nfv_graph
from repro.graphs import LabeledGraph
from repro.indexing import GrapesIndex
from repro.service import (
    AdmissionController,
    QueryOptions,
    Service,
    ShardedCatalog,
    TenantPolicy,
    TicketState,
    answers_digest,
    assign_shards,
    merge_shard_outcomes,
    run_closed_loop,
)
from repro.psi.executors import RaceOutcome
from repro.matching import MatchOutcome
from repro.workload import default_tenant_mixes, generate_tenant_stream

from .conftest import relabelled

BUDGET = 60_000
FTV_OPTS = QueryOptions(rewritings=("Orig", "DND"))


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards, dataset="ppi", **service_kw):
    svc = Service(
        workers=4,
        shards=shards,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        **service_kw,
    )
    svc.load_dataset(dataset, scale="tiny")
    return svc


def ftv_streams(graphs, tenants=2, per_tenant=6, seed=9, repeat=0.3):
    mixes = default_tenant_mixes(
        tenants, per_tenant, sizes=(4, 6), repeat_fraction=repeat
    )
    return {
        m.tenant: generate_tenant_stream(graphs, m, seed=seed)
        for m in mixes
    }


class TestAssignShards:
    def test_hash_round_robin(self, ppi_graphs):
        assignment = assign_shards(ppi_graphs, 2, "hash")
        assert assignment == ((0, 2), (1,))

    def test_size_balanced_covers_all_once(self, ppi_graphs):
        assignment = assign_shards(ppi_graphs, 2, "size_balanced")
        flat = sorted(g for ids in assignment for g in ids)
        assert flat == list(range(len(ppi_graphs)))
        # each shard tuple ascending
        for ids in assignment:
            assert list(ids) == sorted(ids)

    def test_size_balanced_balances_edges(self):
        graphs = build_ftv_graphs("synthetic", "tiny")
        assignment = assign_shards(graphs, 2, "size_balanced")
        loads = [
            sum(graphs[g].size for g in ids) for ids in assignment
        ]
        # LPT greedy: no shard holds more than the other plus the
        # largest single graph
        assert abs(loads[0] - loads[1]) <= max(g.size for g in graphs)

    def test_empty_shards_when_more_shards_than_graphs(self, ppi_graphs):
        assignment = assign_shards(ppi_graphs, 5, "hash")
        assert sum(1 for ids in assignment if not ids) == 2

    def test_deterministic(self, ppi_graphs):
        a = assign_shards(ppi_graphs, 3, "size_balanced")
        b = assign_shards(ppi_graphs, 3, "size_balanced")
        assert a == b

    def test_unknown_strategy(self, ppi_graphs):
        with pytest.raises(ValueError, match="strategy"):
            assign_shards(ppi_graphs, 2, "random")


class TestShardedCatalog:
    def test_load_partitions_and_warms(self, ppi_graphs):
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        assert entry.kind == "ftv"
        assert entry.involved_shards() == (0, 1)
        total = sum(len(ids) for ids in entry.assignment)
        assert total == len(ppi_graphs)
        for shard in entry.involved_shards():
            sub = entry.shard_entry(shard)
            assert sub.ftv_index is not None
            assert len(sub.graphs) == len(entry.shard_ids(shard))

    def test_load_idempotent_and_conflicts(self):
        cat = ShardedCatalog(num_shards=2)
        a = cat.load("ppi", scale="tiny")
        assert cat.load("ppi", scale="tiny") is a
        with pytest.raises(ValueError, match="already loaded"):
            cat.load("ppi", scale="default")

    def test_nfv_lives_on_one_home_shard(self):
        cat = ShardedCatalog(num_shards=3)
        entry = cat.load("yeast", scale="tiny")
        assert entry.kind == "nfv"
        assert entry.involved_shards() == (entry.home_shard,)
        assert entry.psi is not None
        assert sum(len(ids) for ids in entry.assignment) == 1

    def test_unknown_dataset(self):
        cat = ShardedCatalog(num_shards=2)
        with pytest.raises(ValueError, match="unknown dataset"):
            cat.load("nope")
        with pytest.raises(KeyError):
            cat.get("ppi")

    def test_memory_report_aggregates(self):
        cat = ShardedCatalog(num_shards=2)
        cat.load("ppi", scale="tiny")
        report = cat.memory_report()
        assert report["num_shards"] == 2
        assert len(report["shards"]) == 2
        assert report["total_bytes"] == sum(
            r["total_bytes"] for r in report["shards"]
        )
        assert report["datasets"]["ppi"]["graphs_per_shard"] == [1, 2]

    def test_add_graph_to_an_empty_shard_registers_its_partition(
        self, ppi_graphs
    ):
        """More shards than graphs: the first graph placed on an empty
        shard finds no partition to extend, so one is registered —
        holding the newcomer once, not twice."""
        cat = ShardedCatalog(num_shards=len(ppi_graphs) + 1)
        entry = cat.load("ppi", scale="tiny")
        empty = entry.assignment.index(())
        newcomer = ppi_graphs[0].permuted(
            list(reversed(range(ppi_graphs[0].order)))
        )
        gid = cat.add_graph("ppi", newcomer, shard=empty)
        assert entry.assignment[empty] == (gid,)
        sub = cat.shard_entry("ppi", empty)
        assert sub.graphs == [newcomer]
        assert sub.ftv_index.live_ids() == [0]
        assert empty in entry.involved_shards()

    def test_unload_is_final(self):
        cat = ShardedCatalog(num_shards=2)
        cat.load("ppi", scale="tiny")
        cat.unload("ppi")
        with pytest.raises(KeyError):
            cat.get("ppi")

    def test_reassign_rolls_back_on_failed_reregister(self):
        """A re-register failure mid-reassign must not leave a
        half-applied assignment: the catalog restores the prior
        layout, bumps the routing epoch, and keeps serving."""
        cat = ShardedCatalog(num_shards=2)
        entry = cat.load("ppi", scale="tiny")
        before = entry.assignment
        epoch = entry.router.epoch
        new = [list(ids) for ids in before]
        # move one graph each way so BOTH shards change (two
        # re-register calls; the second one will blow up)
        a, b = new[0][-1], new[1][-1]
        new[0].remove(a); new[1].append(a)
        new[1].remove(b); new[0].append(b)
        real = cat._register_shard
        calls = {"n": 0}

        def flaky(entry, shard):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("index build died")
            return real(entry, shard)

        cat._register_shard = flaky
        with pytest.raises(RuntimeError, match="index build died"):
            cat.reassign("ppi", new)
        cat._register_shard = real
        assert entry.assignment == before
        assert cat.rollbacks == 1
        assert cat.reassignments == 0
        assert cat.migrated_graphs == 0
        assert entry.router.epoch > epoch  # stale plans invalidated
        # both shards serve the *old* partitions again
        for shard in (0, 1):
            sub = entry.shard_entry(shard)
            assert len(sub.graphs) == len(before[shard])


class TestMergeOutcomes:
    @staticmethod
    def outcome(found, ids, steps, killed=False, winner="w",
                num_embeddings=None):
        match = MatchOutcome(
            found=found,
            num_embeddings=(
                len(ids) if num_embeddings is None else num_embeddings
            ),
        )
        match.matching_ids = tuple(ids)
        return RaceOutcome(
            winner=winner,
            outcome=match,
            steps=steps,
            found=found,
            killed=killed,
            overhead_steps=4,
            per_variant_steps={"v": steps},
        )

    def test_single_identity_shard_passes_through(self):
        race = self.outcome(True, (0, 2), 100)
        merged = merge_shard_outcomes({0: race}, {0: None})
        assert merged is race

    def test_multi_shard_union_sorted_global(self):
        merged = merge_shard_outcomes(
            {
                0: self.outcome(True, (0, 1), 50, winner="a"),
                1: self.outcome(True, (0,), 80, winner="b"),
            },
            {0: (0, 2), 1: (1,)},
        )
        assert merged.found
        assert merged.outcome.matching_ids == (0, 1, 2)
        assert merged.outcome.num_embeddings == 3
        # deciding shard: lowest-indexed found shard
        assert merged.winner == "a"
        assert merged.steps == 50
        assert merged.per_variant_steps == {"v": 130}

    def test_all_miss_takes_slowest_shard_time(self):
        merged = merge_shard_outcomes(
            {
                0: self.outcome(False, (), 30, winner="a"),
                1: self.outcome(False, (), 90, winner="b"),
            },
            {0: (0,), 1: (1,)},
        )
        assert not merged.found
        assert merged.outcome.matching_ids == ()
        assert merged.steps == 90 and merged.winner == "b"

    def test_killed_shard_taints_merge(self):
        merged = merge_shard_outcomes(
            {
                0: self.outcome(False, (), 30),
                1: self.outcome(False, (), 90, killed=True),
            },
            {0: (0,), 1: (1,)},
        )
        assert merged.killed

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_shard_outcomes({}, {})


def answers_of(report):
    return sorted(
        (
            t.tenant,
            t.query.name,
            t.result.found,
            t.result.num_embeddings,
            tuple(t.result.matching_ids),
        )
        for t in report.completed
    )


class TestShardedEquivalence:
    """The acceptance test: answers never depend on the shard layout."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_ftv_answers_bit_for_bit(self, ppi_graphs, shards):
        streams = ftv_streams(ppi_graphs)
        single = run_closed_loop(
            ftv_service(1), "ppi", streams, options=FTV_OPTS
        )
        sharded = run_closed_loop(
            ftv_service(shards), "ppi", streams, options=FTV_OPTS
        )
        assert answers_of(single) == answers_of(sharded)
        assert single.answers == sharded.answers
        assert not any(t.result.killed for t in sharded.completed)

    def test_sharded_answers_match_raw_index(self, ppi_graphs):
        """Global matching ids agree with a bare Grapes index of the
        whole collection."""
        svc = ftv_service(2)
        reference = GrapesIndex(ppi_graphs)
        mixes = default_tenant_mixes(1, 4, sizes=(4,), repeat_fraction=0.0)
        stream = generate_tenant_stream(
            ppi_graphs, mixes[0], seed=11
        )
        for mq in stream:
            t = svc.submit("ppi", mq.query.graph, options=FTV_OPTS)
            svc.run_until_idle()
            assert list(t.result.matching_ids) == (
                reference.query(mq.query.graph).matching_ids
            )

    def test_sharded_run_deterministic(self, ppi_graphs):
        streams = ftv_streams(ppi_graphs)
        digests = {
            run_closed_loop(
                ftv_service(2), "ppi", streams, options=FTV_OPTS
            ).digest
            for _ in range(2)
        }
        assert len(digests) == 1

    def test_empty_shard_is_skipped(self, ppi_graphs):
        """More shards than graphs: empty shards get no races."""
        svc = ftv_service(5)  # tiny ppi has 3 graphs
        entry = svc.catalog.get("ppi")
        assert len(entry.involved_shards()) == 3
        streams = ftv_streams(ppi_graphs, tenants=1, per_tenant=4)
        single = run_closed_loop(
            ftv_service(1), "ppi", streams, options=FTV_OPTS
        )
        sharded = run_closed_loop(svc, "ppi", streams, options=FTV_OPTS)
        assert answers_of(single) == answers_of(sharded)
        done = [t for t in sharded.completed if not t.cache_hit]
        assert all(0 < t.fanout <= 3 for t in done)

    def test_all_shards_miss(self, ppi_graphs):
        """A query matching nothing completes found=False everywhere."""
        alien = LabeledGraph.from_edges(
            ["ZZZ", "ZZZ", "ZZZ"], [(0, 1), (1, 2)], name="alien"
        )
        results = []
        for shards in (1, 2, 3):
            svc = ftv_service(shards)
            t = svc.submit("ppi", alien, options=FTV_OPTS)
            svc.run_until_idle()
            assert t.state is TicketState.DONE
            results.append(
                (t.result.found, t.result.num_embeddings,
                 tuple(t.result.matching_ids))
            )
        assert results == [(False, 0, ())] * 3

    def test_tight_budget_scopes_the_invariance_claim(self, ppi_graphs):
        """Killed answers are execution-dependent; completed ones not.

        Each shard race carries its own kill cap, so under a starving
        budget *which* queries die may differ between layouts.  The
        invariant that must survive: any query completed (not killed)
        in both layouts has identical answers, merged race time never
        exceeds the budget, and nothing killed reaches the cache.
        """
        budget = 40
        streams = ftv_streams(ppi_graphs, tenants=1, per_tenant=8,
                              repeat=0.0)

        def run(shards):
            svc = Service(
                workers=4,
                shards=shards,
                admission=AdmissionController(
                    default_policy=TenantPolicy(step_budget=budget)
                ),
            )
            svc.load_dataset("ppi", scale="tiny")
            return svc, run_closed_loop(
                svc, "ppi", streams, options=FTV_OPTS
            )

        svc1, single = run(1)
        svc2, sharded = run(2)
        assert any(t.result.killed for t in single.completed)
        by_name = lambda rep: {
            t.query.name: t.result for t in rep.completed
        }
        r1, r2 = by_name(single), by_name(sharded)
        completed_both = [
            n for n in r1
            if not r1[n].killed and not r2[n].killed
        ]
        assert completed_both, "budget killed everything; test is vacuous"
        for name in completed_both:
            assert (
                r1[name].found,
                r1[name].num_embeddings,
                tuple(r1[name].matching_ids),
            ) == (
                r2[name].found,
                r2[name].num_embeddings,
                tuple(r2[name].matching_ids),
            )
        # the budget stays a cap on merged race *time* in any layout
        for rep in (single, sharded):
            for t in rep.completed:
                if not t.cache_hit and not t.coalesced:
                    assert t.result.steps <= budget + 8  # + overhead
        assert len(svc1.cache) == len(svc2.cache)
        for svc in (svc1, svc2):
            assert all(
                not t.result.killed
                for t in (single.completed + sharded.completed)
                if t.cache_hit
            )

    def test_nfv_single_home_shard_answers(self):
        """NFV datasets serve whole from one shard, answers unchanged."""
        store = build_nfv_graph("yeast", "tiny")
        mixes = default_tenant_mixes(2, 5, sizes=(4, 6), repeat_fraction=0.3)
        streams = {
            m.tenant: generate_tenant_stream([store], m, seed=42)
            for m in mixes
        }
        opts = QueryOptions()
        single = run_closed_loop(
            ftv_service(1, dataset="yeast"), "yeast", streams, options=opts
        )
        sharded = run_closed_loop(
            ftv_service(4, dataset="yeast"), "yeast", streams, options=opts
        )
        assert single.answers == sharded.answers
        # one home shard => every served ticket fanned out to 1 race
        served = [
            t for t in sharded.completed
            if not t.cache_hit and not t.coalesced
        ]
        assert served and all(t.fanout == 1 for t in served)


class TestDecisionShortCircuit:
    def test_first_true_cancels_siblings(self, ppi_graphs):
        opts = QueryOptions(
            rewritings=("Orig", "DND"), decision_only=True
        )
        streams = ftv_streams(ppi_graphs, tenants=1, per_tenant=8,
                              repeat=0.0)
        single = run_closed_loop(
            ftv_service(1), "ppi", streams, options=opts
        )
        svc = ftv_service(3)
        sharded = run_closed_loop(svc, "ppi", streams, options=opts)
        # the decision (found) is layout-invariant even when siblings
        # are cancelled mid-race
        assert (
            sorted((t.query.name, t.result.found)
                   for t in single.completed)
            == sorted((t.query.name, t.result.found)
                      for t in sharded.completed)
        )
        # workload queries are grown from stored graphs, so matches
        # exist and at least one fan-out was settled by its first shard
        assert svc.shard_cancelled.value > 0
        assert svc.stats()["shard_cancelled"] == svc.shard_cancelled.value

    def test_decision_mode_has_distinct_cache_keys(self, ppi_graphs):
        """A decision-only witness answer must never serve a full query."""
        svc = ftv_service(2)
        [mq] = generate_tenant_stream(
            ppi_graphs,
            default_tenant_mixes(1, 1, sizes=(4,), repeat_fraction=0.0)[0],
            seed=3,
        )
        t1 = svc.submit(
            "ppi", mq.query.graph,
            options=QueryOptions(rewritings=("Orig",), decision_only=True),
        )
        svc.run_until_idle()
        t2 = svc.submit(
            "ppi", mq.query.graph,
            options=QueryOptions(rewritings=("Orig",)),
        )
        svc.run_until_idle()
        assert not t2.cache_hit
        assert len(t2.result.matching_ids) >= len(t1.result.matching_ids)


class TestShardedServiceIntegration:
    def test_cache_shared_between_layouts(self, ppi_graphs):
        """Sharded and unsharded serving share one result cache."""
        cat1 = ftv_service(1)
        [mq] = generate_tenant_stream(
            ppi_graphs,
            default_tenant_mixes(1, 1, sizes=(6,), repeat_fraction=0.0)[0],
            seed=21,
        )
        fresh = cat1.submit("ppi", mq.query.graph, options=FTV_OPTS)
        cat1.run_until_idle()
        # hand the unsharded service's cache to a sharded service: the
        # canonical key must hit because the context excludes layout
        sharded = ftv_service(2)
        sharded.cache = cat1.cache
        hit = sharded.submit("ppi", mq.query.graph, options=FTV_OPTS)
        assert hit.cache_hit
        assert hit.result.matching_ids == fresh.result.matching_ids

    def test_coalescing_across_sharded_ticket(self, ppi_graphs):
        svc = ftv_service(2)
        [mq] = generate_tenant_stream(
            ppi_graphs,
            default_tenant_mixes(1, 1, sizes=(6,), repeat_fraction=0.0)[0],
            seed=13,
        )
        leader = svc.submit("ppi", mq.query.graph, options=FTV_OPTS)
        follower = svc.submit("ppi", mq.query.graph, options=FTV_OPTS)
        assert follower.coalesced
        svc.run_until_idle()
        assert leader.state is TicketState.DONE
        assert follower.state is TicketState.DONE
        assert follower.result.coalesced
        assert (
            follower.result.matching_ids == leader.result.matching_ids
        )
        assert follower.finish_time == leader.finish_time

    def test_admission_charges_merged_ticket_once(self, ppi_graphs):
        """One fan-out occupies one in-flight slot, not one per shard."""
        svc = ftv_service(3)
        policy = svc.admission.policy("public")
        streams = ftv_streams(ppi_graphs, tenants=1, per_tenant=6,
                              repeat=0.0)
        max_seen = 0
        pending = list(streams["tenant0"])
        for mq in pending:
            svc.submit("ppi", mq.query.graph, options=FTV_OPTS)
        while not svc.idle:
            svc.pump()
            max_seen = max(max_seen, svc.admission.in_flight("public"))
        assert 0 < max_seen <= policy.max_in_flight

    def test_sharded_stats_shape(self, ppi_graphs):
        svc = ftv_service(2)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS
        )
        s = svc.stats()
        assert s["shards"] == 2
        assert s["completed"] > 0
        assert s["memory"]["total_bytes"] > 0
        assert s["memory"]["num_shards"] == 2

    def test_shard_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            Service(shards=0)

    def test_answers_digest_ignores_bills(self, ppi_graphs):
        """answers_digest is latency/steps-blind; results_digest is not."""
        streams = ftv_streams(ppi_graphs)
        single = run_closed_loop(
            ftv_service(1), "ppi", streams, options=FTV_OPTS
        )
        sharded = run_closed_loop(
            ftv_service(3), "ppi", streams, options=FTV_OPTS
        )
        assert single.answers == sharded.answers
        assert answers_digest(single.completed) == single.answers


# ----------------------------------------------------------------------
# one label code space per collection, one census per ticket
# ----------------------------------------------------------------------

def shares_one_interner(catalog, entry):
    """Every replica's index of every shard, and the router, speak the
    entry's one interner object."""
    assert entry.router.interner is entry.interner
    for shard in entry.involved_shards():
        for replica in catalog.replica_ids(shard):
            index = entry.shard_entry(shard, replica).ftv_index
            assert index.interner is entry.interner
    return True


class TestOneInternerPerCollection:
    def test_identity_survives_every_way_an_index_is_made(
        self, ppi_graphs, tmp_path
    ):
        from repro.store import StoreWriter

        cat = ShardedCatalog(num_shards=2, replicas=2)
        entry = cat.load("ppi", scale="tiny")
        assert entry.interner.labels() == sorted(
            {lab for g in ppi_graphs for lab in g.labels}
        )
        assert shares_one_interner(cat, entry)
        # an add whose label the collection has never seen: one append,
        # seen by every index, and the codes already assigned stay put
        before = dict(entry.interner.code_of)
        cat.add_graph(
            "ppi", relabelled(ppi_graphs[0], "~novel"), shard=1
        )
        assert entry.interner.code_of == {**before, "~novel": len(before)}
        assert shares_one_interner(cat, entry)
        # a rebalance re-registers both partitions from scratch
        new = [list(ids) for ids in entry.assignment]
        new[1].append(new[0].pop())
        assert set(cat.reassign("ppi", new)) == {0, 1}
        assert shares_one_interner(cat, entry)
        # a cold boot of that mutated, rebalanced state, and a replica
        # grown from its store
        root = str(tmp_path / "store")
        StoreWriter(root).write_catalog(cat)
        booted = ShardedCatalog(num_shards=2, replicas=2, store=root)
        restored = booted.load("ppi", scale="tiny")
        assert restored.interner.labels() == entry.interner.labels()
        assert shares_one_interner(booted, restored)
        booted.add_replica(0)
        assert booted.store.rebuilds == 0
        assert shares_one_interner(booted, restored)

    def test_an_empty_shard_registered_by_an_add_codes_its_novel_label(
        self, ppi_graphs
    ):
        """The partition is *built* holding the newcomer: the label it
        brings must have its code before that build censuses it."""
        cat = ShardedCatalog(num_shards=len(ppi_graphs) + 1)
        entry = cat.load("ppi", scale="tiny")
        empty = entry.assignment.index(())
        newcomer = relabelled(ppi_graphs[0], "~novel")
        cat.add_graph("ppi", newcomer, shard=empty)
        assert "~novel" in entry.interner.code_of
        assert shares_one_interner(cat, entry)
        index = entry.shard_entry(empty).ftv_index
        assert all(
            code >= 0 for seq, _ in index.trie.iter_postings()
            for code in seq
        )
        query = LabeledGraph(2, ["~novel", newcomer.label(1)])
        query.add_edge(0, 1)
        assert newcomer.has_edge(0, 1) == (index.filter(query) == [0])


@pytest.fixture
def censuses(monkeypatch):
    """Every ``coded_path_census`` call any layer makes, as ``(the
    graph it was taken of, with_locations)``."""
    import repro.indexing.base
    import repro.indexing.features
    import repro.indexing.grapes
    import repro.service.service

    taken = []
    real = repro.indexing.features.coded_path_census

    def counting(graph, max_length, codes, with_locations=False):
        taken.append((graph, with_locations))
        return real(graph, max_length, codes, with_locations)

    for module in (
        repro.indexing.base, repro.indexing.grapes, repro.service.service
    ):
        monkeypatch.setattr(module, "coded_path_census", counting)
    return taken


class TestOneCensusPerTicket:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("routing", [True, False])
    @pytest.mark.parametrize("decision_only", [False, True])
    def test_exactly_one_per_admitted_ticket(
        self, shards, routing, decision_only, ppi_graphs, censuses
    ):
        svc = ftv_service(shards, routing=routing)
        del censuses[:]  # the build's, one per stored graph
        options = QueryOptions(
            rewritings=("Orig", "DND"), decision_only=decision_only
        )
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs, per_tenant=8),
            options=options, concurrency=3,
        )
        tickets = report.completed
        raced = [
            t for t in tickets
            if not t.cache_hit and not t.result.coalesced
        ]
        assert len(raced) < len(tickets)  # hits and followers happened
        assert any(t.cache_hit for t in tickets)
        if shards > 1 and routing and decision_only:
            assert svc.waves_skipped.value > 0  # waves were staged
        assert sorted(id(g) for g, _ in censuses) == sorted(
            id(t.query) for t in raced
        )

    def test_a_deferred_wave_and_a_rerouted_leg_reuse_it(
        self, ppi_graphs, censuses
    ):
        svc = ftv_service(2, routing=True, replicas=2)
        del censuses[:]
        staged, full, follower, query = self.staged_and_rerouted(
            svc, ppi_graphs
        )
        assert staged.done and full.done and follower.result.coalesced
        assert [id(g) for g, _ in censuses] == [id(query), id(query)]
        hit = svc.submit("ppi", query, options=FTV_OPTS)
        assert hit.cache_hit and len(censuses) == 2

    @staticmethod
    def staged_and_rerouted(svc, ppi_graphs):
        """On a fresh 2-shard, 2-replica routed service: a decision
        ticket whose second wave is deferred and whose first leg is
        failed over, beside a full ticket and its follower."""
        # a query its expected-first-true shard does not settle: the
        # second wave is built only once the first has come back empty
        stream = ftv_streams(ppi_graphs, per_tenant=8)["tenant0"]
        query = stream[3].query.graph
        staged = svc.submit(
            "ppi", query,
            options=QueryOptions(
                rewritings=("Orig", "DND"), decision_only=True
            ),
        )
        full = svc.submit("ppi", query, options=FTV_OPTS)
        follower = svc.submit("ppi", query, options=FTV_OPTS)
        svc.pump()
        state = svc._fanout[staged.id]
        assert set(state.outcomes) == {0} and state.pending == {1}
        svc._fail_one_task()  # that leg restarts from scratch
        svc.run_until_idle()
        assert svc.retries.value == 1
        return staged, full, follower, query


def distinct_indexes(svc):
    """The FTV indexes behind ``ppi``, one per trie."""
    entry = svc.catalog.get("ppi")
    by_trie = {
        id(index.trie): index
        for shard in entry.involved_shards()
        for replica in svc.catalog.replica_ids(shard)
        for index in [entry.shard_entry(shard, replica).ftv_index]
    }
    return list(by_trie.values())


class TestServingNeverLocates:
    """Location masks have one reader, Grapes' own verifier
    (``index.query`` / ``verify`` / ``feature_locations``), and the
    service verifies whole stored graphs: nothing it does may pay for a
    with-locations census, and the verifier pays one per stored graph
    it is first asked about."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_only_the_grapes_verifier_takes_a_location_census(
        self, shards, ppi_graphs, censuses, tmp_path
    ):
        root = str(tmp_path / "store")
        layout = dict(routing=True, replicas=shards)
        svc = ftv_service(shards, journal=root, **layout)
        if shards > 1:  # a deferred wave, a rerouted leg
            TestOneCensusPerTicket.staged_and_rerouted(svc, ppi_graphs)
        streams = ftv_streams(ppi_graphs, per_tenant=8)
        decide = QueryOptions(
            rewritings=("Orig", "DND"), decision_only=True
        )
        run_closed_loop(svc, "ppi", streams, options=decide, concurrency=3)
        slot = len(ppi_graphs)
        for mutation in (
            dict(op="add_graph", graph=relabelled(ppi_graphs[1], "!novel")),
            dict(op="remove_graph", graph_id=slot),
            dict(op="add_graph", graph=ppi_graphs[2], graph_id=slot),
        ):
            ticket = svc.submit_mutation("ppi", **mutation)
            svc.pump()
            assert ticket.applied
        svc.checkpoint_store(root)
        booted = ftv_service(shards, store=root, journal=root, **layout)
        booted.replay_journal()
        assert booted.catalog.store.rebuilds == 0
        run_closed_loop(
            booted, "ppi", streams, options=FTV_OPTS, concurrency=3
        )
        assert len(censuses) > 2 * len(ppi_graphs)
        assert not any(located for _, located in censuses)

        queries = [item.query.graph for item in streams["tenant0"]]
        for index in distinct_indexes(svc) + distinct_indexes(booted):
            del censuses[:]
            asked = {
                gid for q in queries for gid in index.query(q).candidate_ids
            }
            assert asked == index.trie.located != set()
            assert sorted(
                id(g) for g, located in censuses if located
            ) == sorted(id(index.graphs[gid]) for gid in asked)
            del censuses[:]
            for q in queries:
                index.query(q)
            assert not any(located for _, located in censuses)
