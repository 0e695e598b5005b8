"""Tests for admission control: queues, caps, fair share."""

import pytest

from repro.graphs import LabeledGraph
from repro.service import AdmissionController, TenantPolicy, TicketState


def q(name="q"):
    g = LabeledGraph(2, ["A", "B"], name=name)
    g.add_edge(0, 1)
    return g


class TestPolicies:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy(max_in_flight=0)
        with pytest.raises(ValueError):
            TenantPolicy(step_budget=0)
        with pytest.raises(ValueError):
            TenantPolicy(weight=0)

    def test_default_and_override(self):
        adm = AdmissionController(
            default_policy=TenantPolicy(step_budget=100)
        )
        adm.set_policy("vip", TenantPolicy(step_budget=999))
        assert adm.policy("anon").step_budget == 100
        assert adm.policy("vip").step_budget == 999

    def test_budget_from_policy(self):
        adm = AdmissionController(
            default_policy=TenantPolicy(step_budget=123)
        )
        t = adm.enqueue(adm.issue("a", "ds", q(), now=0))
        assert t.budget_steps == 123
        t2 = adm.enqueue(adm.issue("a", "ds", q(), now=0, budget_steps=55))
        assert t2.budget_steps == 55


class TestQueueing:
    def test_reject_on_full_queue(self):
        adm = AdmissionController(
            default_policy=TenantPolicy(max_queued=2)
        )
        tickets = [
            adm.enqueue(adm.issue("a", "ds", q(), now=0)) for _ in range(3)
        ]
        states = [t.state for t in tickets]
        assert states.count(TicketState.REJECTED) == 1
        assert adm.rejected.value == 1
        rejected = tickets[-1]
        assert "queue full" in rejected.reject_reason
        assert rejected.latency == 0

    def test_in_flight_cap(self):
        adm = AdmissionController(
            default_policy=TenantPolicy(max_in_flight=1)
        )
        adm.enqueue(adm.issue("a", "ds", q(), now=0))
        adm.enqueue(adm.issue("a", "ds", q(), now=0))
        first = adm.next_ticket()
        assert first is not None
        assert first.state is TicketState.RUNNING
        # cap of 1: second query must wait
        assert adm.next_ticket() is None
        adm.on_complete(first)
        assert adm.next_ticket() is not None

    def test_queued_and_in_flight_counters(self):
        adm = AdmissionController()
        adm.enqueue(adm.issue("a", "ds", q(), now=0))
        adm.enqueue(adm.issue("b", "ds", q(), now=0))
        assert adm.queued() == 2
        adm.next_ticket()
        assert adm.queued() == 1
        assert adm.in_flight() == 1


class TestFairShare:
    def test_least_charged_tenant_first(self):
        adm = AdmissionController()
        adm.enqueue(adm.issue("a", "ds", q(), now=0))
        adm.enqueue(adm.issue("b", "ds", q(), now=0))
        adm.charge("a", 1000)  # a already consumed a lot
        nxt = adm.next_ticket()
        assert nxt.tenant == "b"

    def test_weighted_share(self):
        adm = AdmissionController()
        adm.set_policy("heavy", TenantPolicy(weight=10.0))
        adm.set_policy("light", TenantPolicy(weight=1.0))
        adm.enqueue(adm.issue("heavy", "ds", q(), now=0))
        adm.enqueue(adm.issue("light", "ds", q(), now=0))
        adm.charge("heavy", 500)
        adm.charge("light", 500)
        # heavy's virtual time is 50, light's 500: heavy goes first
        assert adm.next_ticket().tenant == "heavy"

    def test_tie_breaks_by_registration_order(self):
        adm = AdmissionController()
        adm.enqueue(adm.issue("zeta", "ds", q(), now=0))
        adm.enqueue(adm.issue("alpha", "ds", q(), now=0))
        # equal charges: first-registered wins, not alphabetical
        assert adm.next_ticket().tenant == "zeta"

    def test_stats_shape(self):
        adm = AdmissionController()
        adm.enqueue(adm.issue("a", "ds", q(), now=0))
        adm.next_ticket()
        adm.charge("a", 42)
        s = adm.stats()
        assert s["admitted"] == 1
        assert s["charged_steps"]["a"] == 42
