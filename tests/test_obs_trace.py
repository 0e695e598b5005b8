"""Trace completeness: every terminal ticket state yields a closed,
orphan-free span tree — including under chaos.

The defensive contract: ``TicketTrace.finish`` force-closes any span
the instrumentation forgot, stamping it ``auto_closed`` — so a passing
suite here proves the instrumentation closed every span *itself*, on
every code path, and the runtime never holds an open trace for a
terminal ticket.
"""

import json

import pytest

from repro.harness import build_ftv_graphs
from repro.obs import Tracer
from repro.service import (
    AdmissionController,
    FaultEvent,
    FaultInjector,
    QueryOptions,
    Service,
    TenantPolicy,
    TicketState,
    chaos_plan,
    run_closed_loop,
)
from repro.workload import default_tenant_mixes, generate_tenant_stream

BUDGET = 60_000
FTV_OPTS = QueryOptions(rewritings=("Orig", "DND"))


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards=2, replicas=2, **kw):
    svc = Service(
        workers=4,
        shards=shards,
        replicas=replicas,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        **kw,
    )
    svc.load_dataset("ppi", scale="tiny")
    return svc


def ftv_streams(graphs, tenants=2, per_tenant=8, seed=9):
    mixes = default_tenant_mixes(
        tenants, per_tenant, sizes=(4, 6), repeat_fraction=0.3
    )
    return {
        m.tenant: generate_tenant_stream(graphs, m, seed=seed)
        for m in mixes
    }


def a_query(graphs, seed=9, index=0):
    return ftv_streams(graphs, seed=seed)["tenant0"][index].query.graph


def assert_complete(trace):
    """The span-tree invariants every terminal ticket must satisfy."""
    assert trace is not None
    assert trace.done
    root = trace.root
    assert root.name == "ticket"
    assert root.end is not None
    ids = {s.span_id for s in trace.spans}
    for span in trace.spans:
        assert span.end is not None, f"open span {span.name}#{span.span_id}"
        assert "auto_closed" not in span.attrs, (
            f"instrumentation forgot to close {span.name}#{span.span_id}"
        )
        assert span.end >= span.start
        if span.span_id != trace.ROOT:
            assert span.parent_id in ids, f"orphan span {span.span_id}"
            assert span.parent_id != span.span_id
    # the whole tree is reachable from the root
    tree = trace.span_tree()
    seen = []

    def walk(node):
        seen.append(node["span_id"])
        for kid in node.get("children", ()):
            walk(kid)

    walk(tree)
    assert sorted(seen) == sorted(ids)


# ----------------------------------------------------------------------
# tracer unit behavior
# ----------------------------------------------------------------------

class TestTracerRing:
    def test_eviction_and_noop_after(self):
        tr = Tracer(capacity=2)
        tr.start(1, 0)
        tr.start(2, 0)
        tr.start(3, 0)  # evicts ticket 1
        assert tr.get(1) is None
        assert tr.dropped == 1
        # post-eviction operations are silent no-ops
        assert tr.begin(1, "leg", 5) is None
        tr.end(1, 0, 5)
        tr.finish(1, 5)
        assert tr.as_metrics() == {
            "tickets": 2, "dropped": 1, "capacity": 2,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_export_jsonl(self, tmp_path):
        tr = Tracer()
        tr.start(7, 0, tenant="t0")
        span = tr.begin(7, "leg", 1, shard=0)
        tr.end(7, span, 4, found=True)
        tr.finish(7, 5, state="done")
        dest = tmp_path / "traces.jsonl"
        assert tr.export_jsonl(str(dest)) == 1
        lines = dest.read_text().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["ticket_id"] == 7
        assert payload["done"] is True
        assert [s["name"] for s in payload["spans"]] == ["ticket", "leg"]

    def test_eviction_mid_flight_keeps_nooping(self):
        """A trace evicted while its spans are still open must stay a
        no-op target: later begins/ends/events/finishes land nowhere,
        raise nothing, and never resurrect the evicted ticket."""
        tr = Tracer(capacity=2)
        tr.start(1, 0)
        leg = tr.begin(1, "leg", 1, shard=0)  # ticket 1 is mid-flight
        assert leg is not None
        tr.start(2, 0)
        tr.start(3, 0)  # capacity boundary: evicts in-flight ticket 1
        assert tr.get(1) is None
        assert tr.dropped == 1
        # the whole span lifecycle keeps no-op'ing on the evicted id
        tr.end(1, leg, 5, found=True)
        assert tr.begin(1, "retry", 6) is None
        assert tr.event(1, "fault_kill", 6) is None
        tr.finish(1, 7, state="done")
        assert tr.get(1) is None
        assert sorted(t.ticket_id for t in tr.traces()) == [2, 3]
        # survivors are untouched by the evicted ticket's operations
        assert all(len(t.spans) == 1 for t in tr.traces())

    def test_exactly_at_capacity_keeps_all(self):
        tr = Tracer(capacity=3)
        for tid in (1, 2, 3):
            tr.start(tid, 0)
        assert tr.dropped == 0
        assert sorted(t.ticket_id for t in tr.traces()) == [1, 2, 3]

    def test_service_trace_returns_none_not_keyerror(self, ppi_graphs):
        """``Service.trace`` on an evicted or never-issued ticket id is
        None — callers (the /trace endpoint's 404 path) rely on it."""
        svc = ftv_service(shards=1, replicas=1)
        svc.tracer.capacity = 1
        tickets = []
        for seed in (9, 11):
            t = svc.submit(
                "ppi", a_query(ppi_graphs, seed=seed), options=FTV_OPTS
            )
            svc.run_until_idle()
            tickets.append(t)
        assert svc.trace(tickets[0].id) is None  # evicted by capacity=1
        assert svc.trace(tickets[1].id) is not None
        assert svc.trace(999_999) is None  # never issued
        assert svc.trace(-999) is None  # synthetic range, never started

    def test_service_ring_is_bounded(self, ppi_graphs):
        svc = ftv_service(shards=1, replicas=1)
        svc.tracer.capacity = 4
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        metrics = svc.tracer.as_metrics()
        assert metrics["tickets"] == 4
        assert metrics["dropped"] > 0
        for trace in svc.tracer.traces():
            assert_complete(trace)


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------

class TestJsonlExport:
    def test_export_is_each_trace_as_dict(self, ppi_graphs, tmp_path):
        """One JSON line per held trace, each exactly the trace's
        ``as_dict`` — ids, parents, clocks, attrs and done-ness."""
        svc = ftv_service()
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        dest = tmp_path / "traces.jsonl"
        count = svc.export_traces(str(dest))
        lines = dest.read_text().splitlines()
        assert count == len(lines) > 0
        originals = {t.ticket_id: t for t in svc.tracer.traces()}
        for line in lines:
            doc = json.loads(line)
            assert doc == originals[doc["ticket_id"]].as_dict()



# ----------------------------------------------------------------------
# terminal states
# ----------------------------------------------------------------------

class TestTerminalStates:
    def test_done_sharded(self, ppi_graphs):
        svc = ftv_service()
        t = svc.submit("ppi", a_query(ppi_graphs), options=FTV_OPTS)
        svc.run_until_idle()
        assert t.state is TicketState.DONE
        trace = svc.trace(t.id)
        assert_complete(trace)
        assert trace.root.attrs["state"] == "done"
        legs = trace.find("leg")
        assert len(legs) == 2  # one per shard
        assert {leg.attrs["shard"] for leg in legs} == {0, 1}
        assert all("replica" in leg.attrs for leg in legs)
        assert trace.find("queue") and trace.find("dispatch")
        assert trace.find("merge")

    def test_done_unsharded(self, ppi_graphs):
        svc = ftv_service(shards=1, replicas=1)
        t = svc.submit("ppi", a_query(ppi_graphs), options=FTV_OPTS)
        svc.run_until_idle()
        assert t.state is TicketState.DONE
        trace = svc.trace(t.id)
        assert_complete(trace)
        assert len(trace.find("leg")) == 1

    def test_cache_hit(self, ppi_graphs):
        svc = ftv_service()
        q = a_query(ppi_graphs)
        svc.submit("ppi", q, options=FTV_OPTS)
        svc.run_until_idle()
        hit = svc.submit("ppi", q, options=FTV_OPTS)
        assert hit.state is TicketState.DONE and hit.cache_hit
        trace = svc.trace(hit.id)
        assert_complete(trace)
        assert trace.find("cache_hit")
        assert trace.root.attrs["cache_hit"] is True
        assert not trace.find("leg")  # never dispatched

    def test_queue_full_rejected(self, ppi_graphs):
        svc = ftv_service(shards=1, replicas=1)
        svc.admission.set_policy(
            "cramped",
            TenantPolicy(max_in_flight=1, max_queued=0,
                         step_budget=BUDGET),
        )
        q1, q2 = a_query(ppi_graphs, index=0), a_query(
            ppi_graphs, seed=11, index=1
        )
        svc.submit("ppi", q1, tenant="cramped", options=FTV_OPTS)
        t = svc.submit("ppi", q2, tenant="cramped", options=FTV_OPTS)
        assert t.state is TicketState.REJECTED
        trace = svc.trace(t.id)
        assert_complete(trace)
        assert trace.root.attrs["state"] == "rejected"
        assert trace.root.attrs["reason"]
        svc.run_until_idle()

    def test_variant_width_rejected(self, ppi_graphs):
        svc = Service(
            workers=1,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=BUDGET)
            ),
        )
        svc.load_dataset("ppi", scale="tiny")
        t = svc.submit(
            "ppi", a_query(ppi_graphs), options=FTV_OPTS
        )  # 2-wide race, 1 worker
        assert t.state is TicketState.REJECTED
        trace = svc.trace(t.id)
        assert_complete(trace)
        assert trace.root.attrs["state"] == "rejected"

    def test_blackout_degraded(self, ppi_graphs):
        svc = ftv_service()
        svc.kill_replica(0, 0)
        svc.kill_replica(0, 1)
        t = svc.submit("ppi", a_query(ppi_graphs), options=FTV_OPTS)
        svc.run_until_idle()
        assert t.state is TicketState.REJECTED and t.degraded
        trace = svc.trace(t.id)
        assert_complete(trace)
        assert trace.root.attrs["state"] == "rejected"
        assert trace.root.attrs["degraded"] is True
        assert trace.root.attrs["retry_after"] == t.retry_after
        assert trace.find("degraded")

    def test_retry_exhausted_degraded(self, ppi_graphs):
        svc = ftv_service()
        svc.fanout.max_retries = 0
        faults = FaultInjector([
            FaultEvent(at=3 + s, kind="kill", shard=s, replica=-1,
                       unit="completions", seq=s)
            for s in range(2)
        ])
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, faults=faults,
        )
        degraded = [t for t in report.tickets if t.degraded]
        assert degraded
        for t in degraded:
            trace = svc.trace(t.id)
            assert_complete(trace)
            assert trace.root.attrs["state"] == "rejected"
            assert trace.find("retry") or trace.find("degraded")

    def test_coalesced_follower(self, ppi_graphs):
        svc = ftv_service()
        q = a_query(ppi_graphs)
        leader = svc.submit("ppi", q, options=FTV_OPTS)
        follower = svc.submit("ppi", q, options=FTV_OPTS)
        assert follower.coalesced
        svc.run_until_idle()
        assert follower.state is TicketState.DONE
        trace = svc.trace(follower.id)
        assert_complete(trace)
        assert trace.find("coalesce_attach")
        attrs = trace.root.attrs
        assert attrs["state"] == "done"
        assert attrs["coalesced"] is True
        # the follower's trace names its leader
        result_events = trace.find("coalesced_result")
        assert result_events
        assert result_events[0].attrs["leader"] == leader.id
        assert not trace.find("leg")  # the leader ran the legs


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------

class TestChaosTraces:
    def test_all_tickets_complete_under_chaos_plan(self, ppi_graphs):
        svc = ftv_service()
        faults = chaos_plan(1337, num_shards=2, replicas=2, queries=16)
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, faults=faults,
        )
        assert svc.stats()["faults"]["injected"] > 0
        for t in report.tickets:
            assert_complete(svc.trace(t.id))

    def test_fault_touched_ticket_shows_kill_and_retry(self, ppi_graphs):
        """The acceptance drill's trace: a mid-flight kill leaves a
        fault_kill event, a lost leg, a retry, and a recovered leg."""
        svc = ftv_service()
        faults = FaultInjector([
            FaultEvent(at=3 + s, kind="kill", shard=s, replica=-1,
                       unit="completions", seq=s)
            for s in range(2)
        ])
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, faults=faults,
        )
        assert svc.fanout.rerouted.value >= 1
        touched = [
            t for t in report.completed
            if t.retries > 0 and svc.trace(t.id) is not None
        ]
        assert touched
        saw_recovery = False
        for t in touched:
            trace = svc.trace(t.id)
            assert_complete(trace)
            assert trace.find("fault_kill")
            retries = trace.find("retry")
            assert retries
            lost = [
                leg for leg in trace.find("leg")
                if leg.attrs.get("outcome") == "lost"
            ]
            recovered = [
                leg for leg in trace.find("leg")
                if "retry" in leg.attrs and "outcome" not in leg.attrs
            ]
            if lost and recovered:
                saw_recovery = True
        assert saw_recovery
