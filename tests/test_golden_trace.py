"""Golden trace of one chaos drill.

The scenario digests pin answers, step bills and latencies, but not the
order in which a ticket's spans and events are recorded.  This test
pins that order — every span's name, parent, clocks and attributes —
for three tickets of one seeded drill on a 2-shard x 2-replica routed
``ppi`` service:

* a decision-only fan-out whose expected-first-true shard stalls on
  wedged replicas, so its sibling, started a hedge later, joins and
  settles the decision;
* a full query whose in-flight leg loses its replica to a kill and is
  rerouted to the sibling;
* a query whose shard loses every replica mid-flight, so it degrades
  together with the coalesced follower riding on it.

``tests/golden_trace.json`` was recorded from the drill below; any
change to it must be a deliberate change to what a trace says.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness import build_ftv_graphs
from repro.service import FaultEvent, FaultInjector, QueryOptions, Service
from repro.workload import default_tenant_mixes, generate_tenant_stream

GOLDEN = Path(__file__).with_name("golden_trace.json")
FULL = QueryOptions(rewritings=("Orig", "DND"))
DECIDE = QueryOptions(rewritings=("Orig", "DND"), decision_only=True)


def _queries() -> list:
    graphs = build_ftv_graphs("ppi", "tiny")
    mixes = default_tenant_mixes(2, 8, sizes=(4, 6), repeat_fraction=0.3)
    return [
        mq.query.graph
        for m in mixes
        for mq in generate_tenant_stream(graphs, m, seed=9)
    ]


def _spans(svc: Service, ticket) -> list:
    # a JSON round trip, so tuples compare equal to the recorded lists
    return json.loads(
        json.dumps([s.as_dict() for s in svc.trace(ticket.id).spans])
    )


def drill() -> dict:
    """Run the drill; each ticket's spans, keyed by its role."""
    queries = _queries()
    svc = Service(workers=4, shards=2, replicas=2)
    svc.load_dataset("ppi", scale="tiny")
    # 1: the route plan orders shard 1 first; its pools are frozen
    # for two ticks, so shard 0's leg reaches its hedge start and
    # settles the decision before shard 1 runs a round
    hedged = svc.submit("ppi", queries[0], options=DECIDE)
    for replica in (0, 1):
        svc.wedge_replica(1, replica, 2)
    svc.run_until_idle()
    # 2: scheduled faults fire after admission and before the tick,
    # so a kill due now lands on a leg that is placed but has not run
    rerouted = svc.submit("ppi", queries[4], options=FULL)
    svc.install_faults(FaultInjector([
        FaultEvent(at=svc.clock, kind="kill", shard=0, replica=-1),
    ]))
    svc.run_until_idle()
    # 3: a leader and its follower; the leader's shard 1 then loses
    # both replicas while its leg is in flight
    leader = svc.submit("ppi", queries[7], options=FULL)
    follower = svc.submit("ppi", queries[7], options=FULL)
    svc.install_faults(FaultInjector([
        FaultEvent(at=svc.clock, kind="kill", shard=1, replica=r, seq=r)
        for r in (0, 1)
    ]))
    svc.run_until_idle()
    assert leader.degraded and follower.degraded and follower.coalesced
    return {
        "hedged": _spans(svc, hedged),
        "rerouted": _spans(svc, rerouted),
        "degraded": _spans(svc, leader),
        "follower": _spans(svc, follower),
    }


def test_the_drill_traces_what_was_recorded():
    recorded = json.loads(GOLDEN.read_text())
    got = drill()
    assert list(got) == list(recorded)
    for role, spans in recorded.items():
        assert got[role] == spans, role


def test_the_drill_reaches_each_path():
    """The recording is only worth pinning if it covers the paths it
    names: a hedged sibling that joins, a rerouted leg, a degrade with
    a follower."""
    recorded = json.loads(GOLDEN.read_text())

    def names(role):
        return [s["name"] for s in recorded[role]]

    hedged = recorded["hedged"]
    [plan] = [s for s in hedged if s["name"] == "route_plan"]
    assert plan["attrs"]["staged"]
    first, *later = plan["attrs"]["order"]
    legs = {s["attrs"]["shard"]: s for s in hedged if s["name"] == "leg"}
    assert legs[first]["attrs"].get("cancelled") is True
    assert all(legs[s]["attrs"].get("found") for s in later)
    assert {"fault_kill", "retry"} <= set(names("rerouted"))
    assert any(
        s["name"] == "leg" and "retry" in s["attrs"]
        for s in recorded["rerouted"]
    )
    assert "degraded" in names("degraded")
    assert recorded["follower"][0]["attrs"]["coalesced"] is True
