"""Crash-safe dynamic collections end to end.

Four claims under test:

* **Fencing + lifecycle** — mutations queue until a quiesce point
  (never interleaving with an in-flight fan-out), acknowledge only
  after journal append + catalog apply, and reject with the same
  retry-after vocabulary as degraded queries.
* **Cache epoch-stamping** — a removed graph id can never appear in a
  post-mutation answer, even when the same canonical query was served
  from the result cache moments before the mutation.
* **Layout-invariant incremental maintenance** — an update stream
  driven through one-shard, sharded+routed, and replicated layouts
  matches the rebuild-from-scratch oracle at every quiesce point, and
  all three layouts land on the same final digest.
* **Replay recovery** — a crash between journal append and ack loses
  nothing that was acknowledged and restores exactly once what was
  journaled; replay is idempotent; add→remove→re-add survives a cold
  boot from checkpoint + journal suffix.
"""

from __future__ import annotations

import pytest

from repro.service import QueryOptions, Service
from repro.service.loadgen import (
    collection_digest,
    oracle_digest,
    plan_update_stream,
    run_closed_loop,
)
from repro.store.journal import JournalCrash
from repro.workload import (
    default_tenant_mixes,
    generate_tenant_stream,
    generate_workload,
)

OPTS = QueryOptions(rewritings=("Orig", "DND"))


def make_service(shards=1, replicas=1, **kw) -> Service:
    svc = Service(workers=4, shards=shards, replicas=replicas, **kw)
    svc.load_dataset("ppi", scale="tiny")
    return svc


def probe_for(svc: Service, gid: int):
    """A query graph carved out of collection slot ``gid`` — it must
    match that graph positively."""
    graphs = svc.catalog.get("ppi").graphs
    return generate_workload([graphs[gid]], 1, 3, seed=3)[0].graph


def apply_all(svc: Service) -> None:
    svc.pump()
    assert not svc._mutations


# ----------------------------------------------------------------------
# fencing + lifecycle
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_add_then_remove_round_trip(self):
        svc = make_service()
        entry = svc.catalog.get("ppi")
        base = len(entry.graphs)
        newcomer = entry.graphs[1]
        added = svc.add_graph("ppi", newcomer)
        apply_all(svc)
        assert added.applied and added.graph_id == base
        assert base in entry.live_graph_ids()
        removed = svc.remove_graph("ppi", base)
        apply_all(svc)
        assert removed.applied
        assert base not in entry.live_graph_ids()
        assert svc.mutations_applied.value == 2

    def test_mutation_is_fenced_until_quiesce(self):
        svc = make_service()
        ticket = svc.submit("ppi", probe_for(svc, 0), options=OPTS)
        mutation = svc.remove_graph("ppi", 0)
        while not ticket.done:
            # fenced: never applied while the query holds id maps
            assert mutation.state == "pending"
            svc.pump()
        svc.pump()
        assert mutation.applied

    def test_backlog_rejection_carries_retry_after(self):
        svc = make_service()
        svc.max_pending_mutations = 1
        g = svc.catalog.get("ppi").graphs[0]
        first = svc.add_graph("ppi", g)
        second = svc.add_graph("ppi", g)
        assert second.rejected
        assert "backlog" in second.reason
        assert second.retry_after is not None
        assert second.retry_after > svc.clock
        apply_all(svc)
        assert first.applied

    @pytest.mark.parametrize("op, kwargs, fragment", [
        ("remove_graph", {"graph_id": 10_000}, "out of range"),
        ("add_graph", {"graph_id": 1}, "is live"),
    ])
    def test_permanent_rejections_have_no_retry_after(
        self, op, kwargs, fragment
    ):
        svc = make_service()
        g = svc.catalog.get("ppi").graphs[0]
        if op == "add_graph":
            kwargs = dict(kwargs, graph=g)
        mutation = svc.submit_mutation("ppi", op, **kwargs)
        svc.pump()
        assert mutation.rejected
        assert fragment in mutation.reason
        assert mutation.retry_after is None

    def test_the_only_replica_dying_rejects_retryably_never_raises(self):
        """A one-shard service is one shard, one replica: replica
        operations do on it what they do on any shard.  Killing the
        only replica leaves a dark shard — open tickets degrade,
        mutations reject, both with ``retry_after`` — and a regrown
        replica serves again."""
        from repro.service import TicketState

        svc = make_service()
        svc.wedge_replica(0, 0, ticks=1)
        assert svc.retire_replica(0) is None  # never the last live one
        racing = svc.submit("ppi", probe_for(svc, 0), options=OPTS)
        svc.pump()
        assert not racing.done
        svc.kill_replica(0, 0)
        queued = svc.submit("ppi", probe_for(svc, 1), options=OPTS)
        mutation = svc.remove_graph("ppi", 0)
        svc.run_until_idle()
        for ticket in (racing, queued):
            assert ticket.state is TicketState.REJECTED
            assert ticket.degraded and ticket.retry_after > svc.clock
        assert mutation.rejected and mutation.retry_after > svc.clock
        assert "no serving replica" in mutation.reason
        stats = svc.stats()
        assert stats["replicas"]["counts"] == [0]
        assert stats["replicas"]["killed"] == 1
        assert stats["faults"]["degraded"] == 2
        replica = svc.add_replica(0)
        assert svc.live_replicas(0) == [replica]
        again = svc.submit("ppi", probe_for(svc, 0), options=OPTS)
        svc.run_until_idle()
        assert again.done and 0 in again.result.matching_ids

    def test_double_remove_is_rejected(self):
        svc = make_service()
        svc.remove_graph("ppi", 0)
        apply_all(svc)
        again = svc.remove_graph("ppi", 0)
        svc.pump()
        assert again.rejected and "already removed" in again.reason

    def test_mutation_metrics_are_registry_only(self):
        # the legacy stats dict is pinned (tests/test_obs.py); the
        # mutation counters live in the registry namespace instead
        svc = make_service()
        svc.remove_graph("ppi", 0)
        apply_all(svc)
        registry = svc.metrics.snapshot()
        assert registry["mutations.applied"] == 1
        assert registry["mutations.pending"] == 0
        assert registry["journal.lag"] == 0
        assert registry["service.mutations"]["epoch"] >= 1
        assert "mutations" not in svc.stats()


# ----------------------------------------------------------------------
# cache epoch-stamping (the staleness regression)
# ----------------------------------------------------------------------

class TestCacheEpoch:
    def test_removed_id_never_in_post_mutation_answer(self):
        svc = make_service()
        probe = probe_for(svc, 0)
        first = svc.submit("ppi", probe, options=OPTS)
        svc.run_until_idle()
        assert 0 in first.result.matching_ids
        # prove the canonical key is hot: an identical submission is
        # served from the result cache
        cached = svc.submit("ppi", probe, options=OPTS)
        svc.run_until_idle()
        assert cached.result.from_cache
        assert 0 in cached.result.matching_ids
        svc.remove_graph("ppi", 0)
        apply_all(svc)
        # same canonical query, post-mutation epoch: the stale entry
        # must be invisible, and the dead id gone from the answer
        after = svc.submit("ppi", probe, options=OPTS)
        svc.run_until_idle()
        assert not after.result.from_cache
        assert 0 not in after.result.matching_ids

    def test_cache_warms_again_within_an_epoch(self):
        svc = make_service()
        probe = probe_for(svc, 1)
        svc.remove_graph("ppi", 0)
        apply_all(svc)
        svc.submit("ppi", probe, options=OPTS)
        svc.run_until_idle()
        again = svc.submit("ppi", probe, options=OPTS)
        svc.run_until_idle()
        assert again.result.from_cache


# ----------------------------------------------------------------------
# layout-invariant incremental maintenance (the oracle claim)
# ----------------------------------------------------------------------

class TestOracleAcrossLayouts:
    LAYOUTS = {"single": (1, 1), "sharded": (2, 1), "replicated": (2, 2)}

    @pytest.fixture(scope="class")
    def layout_reports(self):
        reports = {}
        for name, (shards, replicas) in self.LAYOUTS.items():
            svc = make_service(shards=shards, replicas=replicas)
            graphs = svc.catalog.get("ppi").graphs
            mixes = default_tenant_mixes(
                2, 5, sizes=(4, 6), repeat_fraction=0.3
            )
            streams = {
                m.tenant: generate_tenant_stream(graphs, m, seed=9)
                for m in mixes
            }
            ops = plan_update_stream(graphs, 8, seed=3)
            reports[name] = run_closed_loop(
                svc, "ppi", streams, mutations=ops,
                options=OPTS, concurrency=2, mutate_every=4,
            )
        return reports

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_every_quiesce_point_matches_the_oracle(
        self, layout_reports, name
    ):
        summary = layout_reports[name].mutations
        assert summary["applied"] == 8
        assert summary["rejected"] == 0
        oracle = summary["oracle"]
        assert oracle["checks"] >= 2
        assert oracle["mismatches"] == 0
        for point in oracle["points"]:
            assert point["digest"] == point["oracle"]

    def test_all_layouts_land_on_one_final_digest(self, layout_reports):
        finals = {
            name: report.mutations["oracle"]["points"][-1]["digest"]
            for name, report in layout_reports.items()
        }
        assert len(set(finals.values())) == 1, finals

    def test_no_queries_lost_under_mutation(self, layout_reports):
        for report in layout_reports.values():
            assert all(t.done for t in report.tickets)


# ----------------------------------------------------------------------
# journal replay recovery
# ----------------------------------------------------------------------

class TestReplayRecovery:
    def test_crash_after_full_append_replays_exactly_once(self, tmp_path):
        root = str(tmp_path)
        svc = make_service(journal=root)
        g = svc.catalog.get("ppi").graphs[0]
        base = len(svc.catalog.get("ppi").graphs)
        mutation = svc.add_graph("ppi", g)
        svc.journal_fail_after = 1_000_000  # whole frame lands, then death
        with pytest.raises(JournalCrash):
            svc.pump()
        assert not mutation.applied  # the client was never acknowledged
        # the reborn process: cold boot + replay
        reborn = make_service(journal=root)
        assert reborn.journal_lag() == 1
        reborn.replay_journal()
        assert reborn.mutations_replayed.value == 1
        assert reborn.journal_lag() == 0
        assert base in reborn.catalog.get("ppi").live_graph_ids()
        # idempotent: a second replay changes nothing
        reborn.replay_journal()
        assert reborn.mutations_replayed.value == 1

    def test_torn_append_loses_only_the_unacked_mutation(self, tmp_path):
        root = str(tmp_path)
        svc = make_service(journal=root)
        g = svc.catalog.get("ppi").graphs[0]
        acked = svc.add_graph("ppi", g)
        apply_all(svc)
        assert acked.applied
        svc.remove_graph("ppi", 0)
        svc.journal_fail_after = 10  # torn mid-frame
        with pytest.raises(JournalCrash):
            svc.pump()
        reborn = make_service(journal=root)
        report = reborn.replay_journal()
        # the acknowledged add survives; the torn remove is quarantined
        assert reborn.mutations_replayed.value == 1
        assert report.quarantined is not None
        assert 0 in reborn.catalog.get("ppi").live_graph_ids()

    def test_add_remove_readd_across_cold_boot(self, tmp_path):
        root = str(tmp_path)
        svc = make_service(journal=root)
        entry = svc.catalog.get("ppi")
        base = len(entry.graphs)
        newcomer, replacement = entry.graphs[1], entry.graphs[2]
        svc.add_graph("ppi", newcomer)
        apply_all(svc)
        svc.remove_graph("ppi", base)
        apply_all(svc)
        revived = svc.submit_mutation(
            "ppi", "add_graph", graph=replacement, graph_id=base
        )
        apply_all(svc)
        assert revived.applied
        # checkpoint folds the journal into the manifest...
        summary = svc.checkpoint_store(root)
        assert summary["journal_seq"] == 2
        # ...then two more mutations land after it
        svc.remove_graph("ppi", 0)
        apply_all(svc)
        # cold boot from checkpoint + journal suffix
        reborn = Service(workers=4, store=root, journal=root)
        reborn.load_dataset("ppi", scale="tiny")
        reborn.replay_journal()
        assert reborn.mutations_replayed.value == 1  # only the post-checkpoint op
        live, live2 = (
            sorted(entry.live_graph_ids()),
            sorted(reborn.catalog.get("ppi").live_graph_ids()),
        )
        assert live == live2
        probes = [
            q.graph
            for q in generate_workload(
                [entry.graphs[g] for g in live], 5, 3, seed=11
            )
        ]
        assert collection_digest(svc, "ppi", probes) == collection_digest(
            reborn, "ppi", probes
        )
        assert collection_digest(
            reborn, "ppi", probes
        ) == oracle_digest(reborn, "ppi", probes)

    def test_a_one_shard_mutation_journals_its_shard(self, tmp_path):
        """One shard is a shard: the record pins ``shard=0`` like any
        other placement, and the acked ticket reports it."""
        svc = make_service(journal=str(tmp_path))
        base = len(svc.catalog.get("ppi").graphs)
        added = svc.add_graph("ppi", svc.catalog.get("ppi").graphs[1])
        apply_all(svc)
        removed = svc.remove_graph("ppi", 0)
        apply_all(svc)
        assert (added.shard, removed.shard) == (0, 0)
        records = svc.journal.recover(dry_run=True).records
        assert [(r.op, r.graph_id, r.shard) for r in records] == [
            ("add_graph", base, 0), ("remove_graph", 0, 0),
        ]

    def test_a_parent_commit_unsharded_record_replays_onto_shard_zero(
        self, tmp_path
    ):
        """The unsharded service journaled ``shard=-1`` (no placement
        to pin): such a record replays onto the one shard there is."""
        from repro.graphs.io import graph_to_json
        from repro.store.journal import JournalRecord, MutationJournal

        oracle = make_service()
        graphs = oracle.catalog.get("ppi").graphs
        base = len(graphs)
        journal = MutationJournal(str(tmp_path))
        journal.append(JournalRecord(
            seq=0, epoch=0, op="add_graph", dataset="ppi",
            graph_id=base, shard=-1, graph_json=graph_to_json(graphs[1]),
        ))
        journal.append(JournalRecord(
            seq=1, epoch=0, op="remove_graph", dataset="ppi",
            graph_id=0, shard=-1,
        ))
        reborn = make_service(journal=str(tmp_path))
        assert reborn.journal_lag() == 2
        reborn.replay_journal()
        assert reborn.mutations_replayed.value == 2
        assert reborn.mutations_rejected.value == 0
        entry = reborn.catalog.get("ppi")
        assert entry.assignment == (tuple(range(base + 1)),)
        assert entry.shard_of(base) == 0
        assert sorted(entry.live_graph_ids()) == list(range(1, base + 1))
        oracle.add_graph("ppi", graphs[1])
        oracle.remove_graph("ppi", 0)
        apply_all(oracle)
        probes = [
            q.graph for q in generate_workload(graphs[1:], 5, 3, seed=11)
        ]
        assert collection_digest(reborn, "ppi", probes) == (
            collection_digest(oracle, "ppi", probes)
        )

    def test_replay_requires_a_journal(self):
        svc = make_service()
        with pytest.raises(ValueError, match="no journal"):
            svc.replay_journal()
