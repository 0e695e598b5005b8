"""Fault-injection drills: the failure model's digest-equality claim.

The load-bearing invariant (ISSUE 6 acceptance): chaos changes *where
and when* work happens, never *what is answered* — a replica kill,
pool wedge, or mid-flight task failure reroutes legs onto surviving
replicas, and ``answers_digest`` over budget-completed queries is
bit-for-bit the healthy run's.  Drills cover kill-before-admission,
kill-mid-flight, kill during a hedged decision fan-out, kill around a
quiesce-point rebalance, retry exhaustion, full-shard blackouts (the
degrade-to-refusal path), and digest-verified recovery via
``add_replica``.
"""

import pytest

from repro.service import (
    AdmissionController,
    FaultEvent,
    FaultInjector,
    QueryOptions,
    Rebalancer,
    ReplicaState,
    Service,
    TenantPolicy,
    TicketState,
    chaos_plan,
    run_closed_loop,
)
from repro.graphs import LabeledGraph
from repro.harness import build_ftv_graphs
from repro.workload import default_tenant_mixes, generate_tenant_stream

BUDGET = 60_000
FTV_OPTS = QueryOptions(rewritings=("Orig", "DND"))
DEC_OPTS = QueryOptions(rewritings=("Orig", "DND"), decision_only=True)


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards=2, replicas=2, routing=False, **kw):
    svc = Service(
        workers=4,
        shards=shards,
        replicas=replicas,
        routing=routing,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        **kw,
    )
    svc.load_dataset("ppi", scale="tiny")
    return svc


def ftv_streams(graphs, tenants=2, per_tenant=8, seed=9, repeat=0.3):
    mixes = default_tenant_mixes(
        tenants, per_tenant, sizes=(4, 6), repeat_fraction=repeat
    )
    return {
        m.tenant: generate_tenant_stream(graphs, m, seed=seed)
        for m in mixes
    }


def run(graphs, faults=None, options=FTV_OPTS, service=None, **loop_kw):
    svc = service if service is not None else ftv_service()
    report = run_closed_loop(
        svc, "ppi", ftv_streams(graphs), options=options,
        concurrency=2, faults=faults, **loop_kw,
    )
    return svc, report


def kill_each_shard(at=3, shards=2):
    """The acceptance drill: kill the busiest replica of every shard
    mid-run (completion-count thresholds so the timing is scale-free)."""
    return FaultInjector([
        FaultEvent(at=at + s, kind="kill", shard=s, replica=-1,
                   unit="completions", seq=s)
        for s in range(shards)
    ])


@pytest.fixture(scope="module")
def healthy(ppi_graphs):
    """Baseline reports: unsharded truth + healthy replicated run."""
    single = Service(
        workers=4,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
    )
    single.load_dataset("ppi", scale="tiny")
    base = run_closed_loop(
        single, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
        concurrency=2,
    )
    _, replicated = run(ppi_graphs)
    assert replicated.answers == base.answers
    return base


# ----------------------------------------------------------------------
# plan machinery
# ----------------------------------------------------------------------

class TestFaultEvent:
    def test_validates_kind_unit_threshold(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(at=1, kind="meteor")
        with pytest.raises(ValueError, match="unit"):
            FaultEvent(at=1, kind="kill", unit="wall")
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(at=-1, kind="kill")
        with pytest.raises(ValueError, match="ticks"):
            FaultEvent(at=1, kind="wedge", shard=0, replica=0)


class TestFaultInjector:
    def test_due_fires_once_in_seq_order(self):
        a = FaultEvent(at=5, kind="kill", shard=0, seq=1)
        b = FaultEvent(at=5, kind="kill", shard=1, seq=0)
        c = FaultEvent(at=9, kind="fail_task", seq=2)
        inj = FaultInjector([a, b, c])
        assert inj.due(clock=4, completions=0) == []
        fired = inj.due(clock=6, completions=0)
        assert fired == [b, a]  # same threshold: plan order wins
        assert inj.due(clock=6, completions=0) == []
        assert inj.due(clock=100, completions=0) == [c]
        assert inj.pending == ()
        assert inj.applied == [b, a, c]

    def test_completion_unit_ignores_clock(self):
        e = FaultEvent(at=3, kind="kill", shard=0, unit="completions")
        inj = FaultInjector([e])
        assert inj.due(clock=10_000, completions=2) == []
        assert inj.due(clock=0, completions=3) == [e]


class TestChaosPlan:
    def test_seed_deterministic(self):
        a = chaos_plan(1337, num_shards=2, replicas=2, queries=30)
        b = chaos_plan(1337, num_shards=2, replicas=2, queries=30)
        assert a.pending == b.pending
        c = chaos_plan(7, num_shards=2, replicas=2, queries=30)
        assert a.pending != c.pending

    def test_kills_every_shard(self):
        inj = chaos_plan(1, num_shards=3, replicas=2, queries=30)
        kills = [e for e in inj.pending if e.kind == "kill"]
        assert sorted(e.shard for e in kills) == [0, 1, 2]
        assert all(e.replica == -1 for e in kills)

    def test_horizon_schedules_on_clock(self):
        inj = chaos_plan(1, num_shards=2, replicas=2, horizon=10_000)
        assert all(e.unit == "clock" for e in inj.pending)
        inj = chaos_plan(1, num_shards=2, replicas=2, queries=40)
        assert all(e.unit == "completions" for e in inj.pending)
        with pytest.raises(ValueError, match="horizon"):
            chaos_plan(1, num_shards=2, replicas=2)


# ----------------------------------------------------------------------
# kill drills
# ----------------------------------------------------------------------

class TestKillDrills:
    def test_kill_before_admission(self, ppi_graphs, healthy):
        """A replica dead before any query arrives is simply never
        placed on; answers are the healthy answers."""
        svc = ftv_service()
        svc.kill_replica(0, 0)
        svc.kill_replica(1, 1)
        _, report = run(ppi_graphs, service=svc)
        assert report.answers == healthy.answers
        assert svc.replica_set.state(0, 0) is ReplicaState.DEAD
        assert svc.fanout.rerouted.value == 0  # nothing was in flight
        assert all(t.done for t in report.tickets)

    def test_kill_mid_flight_reroutes_and_answers_hold(
        self, ppi_graphs, healthy
    ):
        """The acceptance drill: 2 shards x 2 replicas, busiest replica
        of each shard killed mid-flight — every lost leg re-admitted,
        answers bit-for-bit healthy, zero lost tickets."""
        svc, report = run(ppi_graphs, faults=kill_each_shard())
        assert report.answers == healthy.answers
        assert report.metrics["service.faults"]["rerouted"] >= 1
        assert report.lost == 0
        assert report.metrics["service.faults"]["degraded"] == 0
        assert svc.replica_set.killed.value == 2
        assert all(
            t.retries <= svc.fanout.max_retries for t in report.tickets
        )
        assert sum(
            1 for t in report.completed if t.result.killed
        ) == 0

    def test_killed_replica_gets_no_new_work(self, ppi_graphs):
        svc, _ = run(ppi_graphs, faults=kill_each_shard())
        dead = [
            (s, r)
            for (s, r), st in svc.replica_set.states.items()
            if st is ReplicaState.DEAD
        ]
        assert len(dead) == 2
        # a dead replica leaves the serving set; its pool is retained
        # for bill attribution but placements never choose it again
        for s, r in dead:
            assert r not in svc.replica_set.ids(s)
            assert svc.replica_set.place(s) != (
                svc.replica_set.pool_index(s, r), r
            )

    def test_blackout_degrades_then_recovery_restores(
        self, ppi_graphs, healthy
    ):
        """Shard loses every replica: affected tickets refuse loudly
        (REJECTED + degraded + retry_after), nothing hangs; a fresh
        replica restores service with healthy answers — the
        digest-verified recovery path."""
        svc = ftv_service()
        svc.kill_replica(0, 0)
        svc.kill_replica(0, 1)
        assert svc.replica_set.live(0) == []
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        ticket = svc.submit("ppi", q, options=FTV_OPTS)
        svc.run_until_idle()
        assert ticket.state is TicketState.REJECTED
        assert ticket.degraded
        assert "degraded" in ticket.reject_reason
        assert ticket.retry_after is not None
        assert ticket.retry_after > ticket.submit_time
        assert svc.fanout.degraded.value == 1
        # recovery: a new warm replica brings the shard back
        replica = svc.add_replica(0)
        assert svc.replica_set.live(0) == [replica]
        _, report = run(ppi_graphs, service=svc)
        assert report.answers == healthy.answers

    def test_retry_exhaustion_degrades_not_loops(self, ppi_graphs):
        """max_retries=0: the first reroute attempt exhausts the retry
        budget and the ticket degrades instead of looping."""
        svc = ftv_service()
        svc.fanout.max_retries = 0
        _, report = run(
            ppi_graphs, faults=kill_each_shard(), service=svc
        )
        assert svc.fanout.degraded.value >= 1
        assert report.lost == 0  # refused, never stranded
        degraded = [t for t in report.tickets if t.degraded]
        assert degraded
        assert all(
            t.state is TicketState.REJECTED and
            t.retry_after is not None
            for t in degraded
        )

    def test_coalesced_follower_degrades_with_leader(self, ppi_graphs):
        svc = ftv_service()
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        leader = svc.submit("ppi", q, options=FTV_OPTS)
        follower = svc.submit("ppi", q, options=FTV_OPTS)
        assert follower.coalesced
        svc.kill_replica(0, 0)
        svc.kill_replica(0, 1)
        svc.run_until_idle()
        assert leader.state is TicketState.REJECTED and leader.degraded
        assert follower.state is TicketState.REJECTED
        assert follower.degraded
        assert follower.retry_after == leader.retry_after


# ----------------------------------------------------------------------
# wedge + task-failure drills
# ----------------------------------------------------------------------

class TestWedgeDrill:
    def test_wedge_stalls_then_recovers(self, ppi_graphs, healthy):
        inj = FaultInjector([
            FaultEvent(at=2, kind="wedge", shard=0, replica=0,
                       ticks=4, unit="completions"),
        ])
        svc, report = run(ppi_graphs, faults=inj)
        assert report.answers == healthy.answers
        assert svc.replica_set.wedged.value == 1
        # the wedge expired: the replica is LIVE again (state entry
        # dropped — LIVE is the default)
        assert svc.replica_set.state(0, 0) is ReplicaState.LIVE
        assert not svc.replica_set.suspect_until
        assert report.lost == 0

    def test_a_wedge_due_as_the_service_goes_idle_expires(self, ppi_graphs):
        """A wedge that falls due on the tick that leaves the service
        idle expires on that tick: no later pump comes to expire it."""
        svc = ftv_service(shards=1)
        svc.wedge_replica(0, 1, ticks=1)  # due one tick from now
        # no stored graph has this label: the race settles in one tick
        query = LabeledGraph.from_edges(["no-such-label"] * 2, [(0, 1)])
        ticket = svc.submit("ppi", query, options=FTV_OPTS)
        svc.run_until_idle()
        assert ticket.done and svc.idle
        assert svc.clock == svc.dispatcher.quantum
        assert not svc.replica_set.suspect_until
        assert svc.replica_set.state(0, 1) is ReplicaState.LIVE

    def test_wedge_unknown_replica_is_noop(self, ppi_graphs):
        svc = ftv_service()
        svc.wedge_replica(0, 99, ticks=3)
        assert svc.faults_noop.value == 1
        assert svc.replica_set.state(0, 99) is ReplicaState.LIVE


class TestFailTaskDrill:
    def test_fail_task_restarts_leg(self, ppi_graphs, healthy):
        inj = FaultInjector([
            FaultEvent(at=2, kind="fail_task", unit="completions"),
        ])
        svc, report = run(ppi_graphs, faults=inj)
        assert report.answers == healthy.answers
        assert svc.fanout.tasks_failed.value == 1
        assert svc.fanout.retries.value >= 1
        assert report.lost == 0
        assert report.metrics["service.faults"]["degraded"] == 0

    def test_fail_task_with_nothing_active_is_noop(self, ppi_graphs):
        svc = ftv_service()
        svc.install_faults(
            FaultInjector([FaultEvent(at=0, kind="fail_task")])
        )
        svc.pump()
        assert svc.faults_noop.value == 1
        assert svc.fanout.tasks_failed.value == 0


# ----------------------------------------------------------------------
# interaction drills: hedged fan-outs, quiesce rebalance, determinism
# ----------------------------------------------------------------------

class TestInteractionDrills:
    def test_kill_during_hedged_decision_wave(self, ppi_graphs):
        """Routed decision queries give every shard but the
        expected-first-true one a hedge start; a kill while such legs
        are in flight must not change any existence answer."""
        base_svc = ftv_service(replicas=1, routing=True)
        base = run_closed_loop(
            base_svc, "ppi", ftv_streams(ppi_graphs),
            options=DEC_OPTS, concurrency=2,
        )
        svc = ftv_service(routing=True)
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=DEC_OPTS,
            concurrency=2, faults=kill_each_shard(at=2),
        )
        assert report.decisions == base.decisions
        assert report.lost == 0
        assert report.metrics["service.faults"]["degraded"] == 0

    def test_kill_around_quiesce_rebalance(self, ppi_graphs, healthy):
        """Chaos and online rebalancing compose: migrations at quiesce
        points plus mid-flight kills still answer healthy."""
        svc = ftv_service(assignment="hash")
        reb = Rebalancer(
            svc, min_window_steps=64, skew_threshold=1.0
        )
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, rebalancer=reb, rebalance_every=4,
            faults=kill_each_shard(at=4),
        )
        assert report.answers == healthy.answers
        assert report.lost == 0
        assert svc.replica_set.killed.value == 2

    def test_chaos_run_is_deterministic(self, ppi_graphs):
        """Two identical chaos runs agree on the *full* digest — bills,
        latencies, reroutes and all — not just on answers."""
        def chaos_run():
            return run(ppi_graphs, faults=kill_each_shard())[1]

        a, b = chaos_run(), chaos_run()
        assert a.digest == b.digest
        assert a.metrics["service.faults"] == b.metrics["service.faults"]

    def test_chaos_plan_end_to_end(self, ppi_graphs, healthy):
        """The CLI-shaped drill: a seeded chaos_plan (kills + wedge +
        task failure) against the replicated layout."""
        inj = chaos_plan(1337, num_shards=2, replicas=2, queries=16)
        svc, report = run(ppi_graphs, faults=inj)
        assert report.answers == healthy.answers
        assert report.metrics["service.faults"]["injected"] == 4
        assert report.lost == 0
        assert not inj.pending


# ----------------------------------------------------------------------
# stats + replica scaling surface
# ----------------------------------------------------------------------

class TestStatsAndScaling:
    def test_stats_report_replicas_and_faults(self, ppi_graphs):
        svc, report = run(ppi_graphs, faults=kill_each_shard())
        stats = svc.stats()
        assert stats["shards"] == 2
        rep = stats["replicas"]
        assert rep["killed"] == 2
        assert sum(rep["counts"]) == 2  # one survivor per shard
        assert len(stats["per_pool_work"]) == 4
        assert len(stats["per_shard_work"]) == 2
        # per-shard keeps shard semantics: dead pools' history included
        assert sum(stats["per_pool_work"]) == sum(
            stats["per_shard_work"]
        )
        faults = stats["faults"]
        assert faults["injected"] == 2
        assert faults == report.metrics["service.faults"]

    def test_retire_requires_quiesce_and_spares_last(self, ppi_graphs):
        svc = ftv_service()
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        svc.submit("ppi", q, options=FTV_OPTS)
        with pytest.raises(RuntimeError, match="quiesce"):
            svc.retire_replica(0)
        svc.run_until_idle()
        assert svc.retire_replica(0) == 1
        assert svc.retire_replica(0) is None  # never the last live
        assert svc.replica_set.state(0, 1) is ReplicaState.RETIRED

    def test_rebalancer_degenerate_topologies_noop(self):
        """Satellite: unsharded and single-shard services make every
        check a counted no-op, never an exception."""
        flat = Service(workers=4)
        flat.load_dataset("ppi", scale="tiny")
        reb = Rebalancer(flat, min_window_steps=1)
        assert reb.maybe_rebalance() == []
        assert reb.degenerate.value == 1
        one = Service(workers=4, shards=1, replicas=2)
        one.load_dataset("ppi", scale="tiny")
        reb1 = Rebalancer(one, min_window_steps=1)
        assert reb1.maybe_rebalance() == []
        assert reb1.degenerate.value == 1
        assert one.metrics.value("rebalance.degenerate_checks") == 1


# ----------------------------------------------------------------------
# fault inputs that name no real replica
# ----------------------------------------------------------------------

class TestFaultInputs:
    """A shard outside ``[0, N)`` is refused with ValueError, never
    read as another shard through negative indexing; a replica the
    shard does not serve with is a counted no-op, never a phantom."""

    @staticmethod
    def untouched(svc):
        rep = svc.stats()["replicas"]
        assert rep["states"] == {}
        assert rep["counts"] == [2, 2]
        assert rep["killed"] == rep["wedged"] == rep["retired"] == 0

    def test_a_negative_shard_kill_is_refused(self):
        svc = ftv_service()
        with pytest.raises(ValueError, match="out of range"):
            svc.kill_replica(-1, 0)
        self.untouched(svc)

    def test_a_negative_shard_retire_is_refused(self):
        svc = ftv_service()
        with pytest.raises(ValueError, match="out of range"):
            svc.retire_replica(-1)
        self.untouched(svc)

    def test_a_negative_shard_wedge_is_refused_and_the_pump_runs(
        self, ppi_graphs
    ):
        svc = ftv_service()
        with pytest.raises(ValueError, match="out of range"):
            svc.wedge_replica(-1, 0, 3)
        self.untouched(svc)
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        ticket = svc.submit("ppi", q, options=FTV_OPTS)
        svc.run_until_idle()
        assert ticket.done and not ticket.degraded

    @pytest.mark.parametrize("kind", ["kill", "wedge"])
    def test_a_shardless_kill_or_wedge_event_is_refused(self, kind):
        with pytest.raises(ValueError, match="needs a shard"):
            FaultEvent(at=0, kind=kind, replica=0, ticks=2)

    def test_killing_a_replica_never_made_is_a_noop(self):
        svc = ftv_service()
        svc.kill_replica(0, 7)
        assert svc.faults_noop.value == 1
        self.untouched(svc)

    def test_a_due_event_naming_a_missing_replica_is_a_noop(
        self, ppi_graphs
    ):
        svc = ftv_service()
        svc.install_faults(FaultInjector([
            FaultEvent(at=0, kind="kill", shard=0, replica=7),
            FaultEvent(at=0, kind="wedge", shard=1, replica=7, ticks=2,
                       seq=1),
        ]))
        q = ftv_streams(ppi_graphs)["tenant0"][0].query.graph
        ticket = svc.submit("ppi", q, options=FTV_OPTS)
        svc.run_until_idle()
        assert ticket.done and not ticket.degraded
        assert svc.faults_noop.value == 2
        self.untouched(svc)

    @pytest.mark.parametrize("call", [
        lambda svc: svc.kill_replica(5, 0),
        lambda svc: svc.wedge_replica(5, 0, 3),
        lambda svc: svc.retire_replica(5),
    ], ids=["kill", "wedge", "retire"])
    def test_a_shard_past_the_last_is_refused(self, call):
        svc = ftv_service()
        with pytest.raises(ValueError, match="out of range"):
            call(svc)
        self.untouched(svc)
