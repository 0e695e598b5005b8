"""Admission control: per-tenant in-flight caps, budgets, fair share.

Every submitted query becomes a :class:`Ticket`.  Admission enforces
three things before the dispatcher ever sees work:

* **queue bounds** — a tenant whose backlog exceeds ``max_queued`` gets
  an immediate ``REJECTED`` ticket (load shedding beats unbounded
  queues);
* **in-flight caps** — at most ``max_in_flight`` of a tenant's queries
  occupy dispatcher slots at once;
* **fair share** — when slots free up, the next tenant served is the
  one with the least weighted consumed steps, via
  :class:`repro.scheduling.FairShareLedger` (the same step-cost algebra
  as the schedule simulator).

Per-query step budgets default from the tenant policy, mirroring the
paper's kill cap: a service must bound every query's worst case.

Invariants: admission is deterministic — ticket ids, queue order, and
fair-share picks are pure functions of the submission history and the
charged-steps ledger, never of wall-clock time or hash order.  A
sharded fan-out is admitted as **one** ticket: one queue slot, one
in-flight unit, one coalesce identity — only the charged steps reflect
the per-shard work actually done.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..graphs import LabeledGraph
from ..obs import Counter, MetricsRegistry
from ..scheduling import FairShareLedger

__all__ = ["TicketState", "TenantPolicy", "Ticket", "AdmissionController"]


class TicketState(Enum):
    """Lifecycle of one submitted query."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    REJECTED = "rejected"


@dataclass(frozen=True)
class TenantPolicy:
    """Limits and fair-share weight for one tenant."""

    max_in_flight: int = 4
    max_queued: int = 256
    step_budget: int = 200_000
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class Ticket:
    """Handle for one submitted query (the ``Service.submit`` return).

    Times are in the service's virtual step clock; ``latency`` includes
    queueing delay — that is the number a client experiences.
    """

    id: int
    tenant: str
    dataset: str
    query: LabeledGraph
    state: TicketState
    budget_steps: int
    submit_time: int
    start_time: Optional[int] = None
    finish_time: Optional[int] = None
    result: Optional[object] = None
    cache_hit: bool = False
    #: attached to an identical in-flight query's race (no own race)
    coalesced: bool = False
    #: shard races this ticket fanned out into (0 until dispatched;
    #: 1 for a one-shard collection).  With routing on this counts only
    #: the *surviving* fan-out — admission charges nothing for shards
    #: the router pruned or skipped.
    fanout: int = 0
    #: shards the router proved empty and excluded from the fan-out
    pruned: int = 0
    #: shards never raced because an earlier routed wave settled the
    #: decision first
    skipped: int = 0
    #: fan-out legs re-admitted after a replica death or task failure
    #: (bounded by the service's ``max_retries``)
    retries: int = 0
    #: refused because a shard lost every replica (or retries ran out):
    #: the service returns no partial answers, so the ticket resolves
    #: REJECTED with this mark and a ``retry_after`` hint instead
    degraded: bool = False
    #: virtual clock after which the client should retry — set on
    #: degraded tickets and on queue-full admission rejections (the
    #: protocol-style backpressure answer)
    retry_after: Optional[int] = None
    reject_reason: str = ""

    @property
    def done(self) -> bool:
        """Whether the ticket reached a terminal state."""
        return self.state in (TicketState.DONE, TicketState.REJECTED)

    @property
    def latency(self) -> Optional[int]:
        """Submit-to-finish virtual latency in steps (None while open)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


class AdmissionController:
    """Queue + fair-share gate in front of the dispatcher."""

    def __init__(
        self,
        default_policy: TenantPolicy = TenantPolicy(),
        policies: Optional[dict[str, TenantPolicy]] = None,
        backoff_steps: int = 2_048,
    ) -> None:
        self.default_policy = default_policy
        self.policies = dict(policies or {})
        #: retry-after horizon (virtual steps) stamped on queue-full
        #: rejections so shed clients know when to come back
        self.backoff_steps = backoff_steps
        self.ledger = FairShareLedger()
        self._queues: dict[str, list[Ticket]] = {}
        self._in_flight: dict[str, int] = {}
        self._ids = itertools.count()
        self.rejected = Counter()
        self.admitted = Counter()
        self.coalesced = Counter()
        #: per-tenant count of followers currently riding a leader
        self._coalesced_backlog: dict[str, int] = {}

    def register_metrics(
        self, registry: MetricsRegistry, prefix: str = "admission"
    ) -> None:
        """Publish this controller's counters + gauges into ``registry``."""
        registry.register(f"{prefix}.admitted", self.admitted)
        registry.register(f"{prefix}.rejected", self.rejected)
        registry.register(f"{prefix}.coalesced", self.coalesced)
        registry.gauge(f"{prefix}.queued", lambda: self.queued())
        registry.gauge(f"{prefix}.in_flight", lambda: self.in_flight())
        registry.gauge(
            f"{prefix}.charged_steps",
            lambda: {str(k): v for k, v in self.ledger.snapshot().items()},
        )

    def policy(self, tenant: str) -> TenantPolicy:
        """The effective policy for ``tenant``."""
        return self.policies.get(tenant, self.default_policy)

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        """Install a per-tenant policy override."""
        self.policies[tenant] = policy
        self.ledger.register(tenant, policy.weight)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def issue(
        self,
        tenant: str,
        dataset: str,
        query: LabeledGraph,
        now: int,
        budget_steps: Optional[int] = None,
    ) -> Ticket:
        """Create a ticket (registering the tenant) without queueing it.

        The service uses this for cache hits: an answered-at-submit
        query never occupies queue or worker capacity.
        """
        policy = self.policy(tenant)
        self.ledger.register(tenant, policy.weight)
        return Ticket(
            id=next(self._ids),
            tenant=tenant,
            dataset=dataset,
            query=query,
            state=TicketState.QUEUED,
            budget_steps=(
                budget_steps if budget_steps is not None
                else policy.step_budget
            ),
            submit_time=now,
        )

    def enqueue(self, ticket: Ticket) -> Ticket:
        """Queue ``ticket``, or reject it when the tenant queue is full."""
        policy = self.policy(ticket.tenant)
        queue = self._queues.setdefault(ticket.tenant, [])
        if len(queue) >= policy.max_queued:
            ticket.state = TicketState.REJECTED
            ticket.reject_reason = (
                f"queue full ({policy.max_queued} queued)"
            )
            ticket.retry_after = ticket.submit_time + self.backoff_steps
            ticket.finish_time = ticket.submit_time
            self.rejected.inc()
            return ticket
        queue.append(ticket)
        return ticket

    def submit(
        self,
        tenant: str,
        dataset: str,
        query: LabeledGraph,
        now: int,
        budget_steps: Optional[int] = None,
    ) -> Ticket:
        """Create a ticket for ``query`` and queue (or reject) it."""
        return self.enqueue(
            self.issue(tenant, dataset, query, now, budget_steps)
        )

    def attach_coalesced(self, ticket: Ticket) -> Ticket:
        """Attach ``ticket`` to an identical in-flight query's race.

        Coalesced tickets never occupy queue or worker capacity — they
        resolve when their leader's race does — but they are still
        bounded: a tenant's followers count against its ``max_queued``
        allowance ("load shedding beats unbounded queues" applies to
        ride-alongs too), so a flood of identical queries sheds instead
        of accumulating unbounded ticket state.  The leader's tenant is
        charged for the shared work.
        """
        policy = self.policy(ticket.tenant)
        backlog = self._coalesced_backlog.get(ticket.tenant, 0)
        if backlog >= policy.max_queued:
            ticket.state = TicketState.REJECTED
            ticket.reject_reason = (
                f"coalesce backlog full ({policy.max_queued} attached)"
            )
            ticket.retry_after = ticket.submit_time + self.backoff_steps
            ticket.finish_time = ticket.submit_time
            self.rejected.inc()
            return ticket
        ticket.coalesced = True
        self.coalesced.inc()
        self._coalesced_backlog[ticket.tenant] = backlog + 1
        return ticket

    def release_coalesced(self, ticket: Ticket) -> None:
        """Release a resolved follower's backlog slot."""
        self._coalesced_backlog[ticket.tenant] = max(
            0, self._coalesced_backlog.get(ticket.tenant, 0) - 1
        )

    # ------------------------------------------------------------------
    # dispatch handshake
    # ------------------------------------------------------------------

    def runnable_tenants(self) -> list[str]:
        """Tenants with backlog and spare in-flight allowance."""
        out = []
        for tenant, queue in sorted(self._queues.items()):
            if not queue:
                continue
            if self._in_flight.get(tenant, 0) < self.policy(tenant).max_in_flight:
                out.append(tenant)
        return out

    def next_ticket(self) -> Optional[Ticket]:
        """Pop the fair-share choice among runnable tenants' heads."""
        candidates = self.runnable_tenants()
        if not candidates:
            return None
        tenant = self.ledger.pick(candidates)
        assert tenant is not None
        ticket = self._queues[tenant].pop(0)
        ticket.state = TicketState.RUNNING
        self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1
        self.admitted.inc()
        return ticket

    def charge(self, tenant: str, steps: int) -> None:
        """Charge consumed steps to the tenant's fair-share account."""
        self.ledger.charge(tenant, steps)

    def on_complete(self, ticket: Ticket) -> None:
        """Release the in-flight slot of a finished ticket."""
        self._in_flight[ticket.tenant] = max(
            0, self._in_flight.get(ticket.tenant, 0) - 1
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def queued(self, tenant: Optional[str] = None) -> int:
        """Backlog length (one tenant, or all)."""
        if tenant is not None:
            return len(self._queues.get(tenant, []))
        return sum(len(q) for q in self._queues.values())

    def in_flight(self, tenant: Optional[str] = None) -> int:
        """Running-query count (one tenant, or all)."""
        if tenant is not None:
            return self._in_flight.get(tenant, 0)
        return sum(self._in_flight.values())

    def stats(self) -> dict:
        """Counters + per-tenant charged steps."""
        return {
            "admitted": self.admitted.value,
            "rejected": self.rejected.value,
            "coalesced": self.coalesced.value,
            "queued": self.queued(),
            "in_flight": self.in_flight(),
            "charged_steps": {
                str(k): v for k, v in self.ledger.snapshot().items()
            },
        }
