"""The fan-out coordinator: one flight record per open ticket, and the
legs it races on the replica pools.

A ticket is *open* from the moment admission queues it until it
completes or degrades.  Everything the service knows about an open
ticket — its entry, options and cache key, the coalesced followers
riding on it, its trace spans, the races built for it and the merge
state of its fan-out — lives in one :class:`Flight` in
:attr:`FanOut.flights`, so finishing or degrading a ticket is one
:meth:`FanOut.close` and nothing about it outlives that.

The coordinator gang-admits queued tickets (all legs in one tick, or
the ticket waits at the head of the line), launches every leg through
one function — place on a replica, build the shard race, admit it to
the dispatcher, record it, open its ``leg`` span — whether the leg is
dispatched with its ticket or rerouted after a fault, and folds the
per-shard outcomes into one answer with
:func:`~repro.service.sharding.merge_shard_outcomes`.  A fan-out that
needs a shard with no serving replica is never answered partially: the
ticket and its followers degrade to ``REJECTED`` with a
``retry_after`` hint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import Counter
from ..psi.executors import RaceOutcome
from .admission import Ticket, TicketState
from .sharding import merge_shard_outcomes

__all__ = ["DEGRADED_RETRY_AFTER", "FanOut", "Flight"]

#: retry-after hint (virtual steps) handed to degraded tickets and to
#: retryably rejected mutations
DEGRADED_RETRY_AFTER = 4_096
#: safety limit, not a deployment setting: initialises
#: :attr:`FanOut.max_retries`
MAX_RETRIES = 3


@dataclass(eq=False)
class Flight:
    """One open ticket, whole.

    ``offsets`` is the plan of the fan-out (shard -> the race step its
    leg starts at), which every build of a leg reads, a reroute's too.
    ``races`` holds the legs built at admission (shard ->
    ``(race, id map)``) until they are dispatched.  From dispatch on,
    ``pending`` are the shards with a leg racing, ``id_maps`` translate
    each shard's local graph ids to global ones (None = identity),
    ``replica_of`` / ``leg_spans`` say where each leg runs and which
    trace span is its, ``cancelled`` are shards whose remaining budget
    a first-true decision revoked after they started; ``work``
    accumulates each shard's billed steps for the fan-out-waste
    counter.
    """

    ticket: Ticket
    entry: object  # the ShardedEntry it races over
    options: object  # its QueryOptions
    #: result-cache key (None = uncacheable); coalescing matches on it
    key: Optional[tuple]
    variants: tuple
    #: open ``queue`` trace span, closed at dispatch
    queue_span: Optional[int] = None
    #: coalesced tickets that resolve with this one
    followers: list = field(default_factory=list)
    #: the query census every race of the ticket probes with, each
    #: probed shard's local candidate ids, and the query's rewritten
    #: forms by permutation (see the race planner)
    counts: Optional[dict] = None
    candidates: dict = field(default_factory=dict)
    rewrites: dict = field(default_factory=dict)
    offsets: dict = field(default_factory=dict)
    races: dict = field(default_factory=dict)
    pending: set = field(default_factory=set)
    outcomes: dict = field(default_factory=dict)
    id_maps: dict = field(default_factory=dict)
    cancelled: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    replica_of: dict = field(default_factory=dict)
    leg_spans: dict = field(default_factory=dict)


class FanOut:
    """Open tickets and their legs, from admission to merge."""

    def __init__(
        self, dispatcher, admission, replicas, planner, tracer
    ) -> None:
        self.dispatcher = dispatcher
        self.admission = admission
        self.replicas = replicas
        self.planner = planner
        self.tracer = tracer
        #: ticket.id -> its flight, for every open ticket
        self.flights: dict[int, Flight] = {}
        #: cache key -> ticket.id of the open flight identical
        #: submissions coalesce onto
        self.leaders: dict[tuple, int] = {}
        #: the flight admitted but waiting for width (head of line)
        self.staged: Optional[Flight] = None
        #: what the pools and replicas looked like when ``staged`` last
        #: failed to fit: it is not re-checked until one of them moves
        self._staged_at: Optional[tuple] = None
        #: bounded retries per ticket before it degrades: a leg lost to
        #: a dead replica (or a failed task) re-admits at most this
        #: many times across the ticket's whole fan-out
        self.max_retries = MAX_RETRIES
        #: tickets degraded since the pump last handed them back
        self.degraded_now: list[Ticket] = []
        #: sibling shard races cancelled by a first-true decision
        self.shard_cancelled = Counter()
        #: sibling shard races a first-true decision cancelled before
        #: their start was reached (routed decision-only fan-outs)
        self.waves_skipped = Counter()
        #: virtual steps billed to shard races that contributed nothing
        #: to their merged outcome (fan-outs of >= 2 raced shards only)
        self.fanout_waste = Counter()
        #: the fault counters ``service.faults`` reports
        self.retries = Counter()
        self.rerouted = Counter()
        self.degraded = Counter()
        self.tasks_failed = Counter()

    # ------------------------------------------------------------------
    # the flight table
    # ------------------------------------------------------------------

    def open(self, flight: Flight) -> None:
        """Record a newly queued ticket."""
        self.flights[flight.ticket.id] = flight
        if flight.key is not None:
            self.leaders[flight.key] = flight.ticket.id

    def close(self, tid: int) -> Flight:
        """Forget an open ticket (it completed or degraded)."""
        flight = self.flights.pop(tid)
        if flight.key is not None and self.leaders.get(flight.key) == tid:
            del self.leaders[flight.key]
        if self.staged is flight:
            self.staged = None
        return flight

    def priority_order(self, ledger) -> list:
        """Fair-share order over active race tokens ((tid, shard)).

        A ticket's shard races share its rank; the shard index is only
        the final tie-break.  The ledger is asked once per tenant.
        """
        flights = self.flights
        tenants: dict = {}
        ranked = []
        for token in self.dispatcher.tokens():
            tid, shard = token
            tenant = flights[tid].ticket.tenant
            share = tenants.get(tenant)
            if share is None:
                share = tenants[tenant] = (
                    ledger.virtual_time(tenant),
                    ledger.registration_index(tenant),
                )
            ranked.append((share, tid, shard))
        ranked.sort()
        return [(tid, shard) for _, tid, shard in ranked]

    # ------------------------------------------------------------------
    # admission and legs
    # ------------------------------------------------------------------

    def admit(self) -> None:
        """Move queued tickets into the dispatcher while slots allow.

        A ticket is gang-admitted: all its races attach in the same
        tick (each to its own pool), or the ticket waits at the head of
        the line — partial fan-outs would make a ticket's latency
        depend on unrelated pools' drain order.  A race whose start
        lies a quantum or more ahead has width 0: it claims no slot
        until it joins, so the fit check leaves it out.
        """
        replicas, dispatcher = self.replicas, self.dispatcher
        if (
            self.staged is not None
            and self._staged_at == (dispatcher.freed, replicas.changes)
        ):
            return  # nothing freed or moved since it last failed to fit
        while True:
            flight = self.staged
            if flight is None:
                if all(
                    dispatcher.slots_free(p) <= 0
                    for p in range(dispatcher.pools)
                ):
                    return
                ticket = self.admission.next_ticket()
                if ticket is None:
                    return
                flight = self.flights[ticket.id]
                flight.offsets = self.planner.plan(flight)
            # a shard the plan needs may have died while the ticket
            # queued or waited for width: refuse rather than block
            dark = replicas.dark(flight.offsets)
            if dark:
                self.degrade(flight, f"shard(s) {dark} lost every replica")
                continue
            if flight is not self.staged:
                flight.races = {
                    shard: self.planner.build(flight, shard, offset)
                    for shard, offset in sorted(flight.offsets.items())
                }
            widths = {
                s: race.width
                for s, (race, _) in flight.races.items()
                if race.width
            }
            if not replicas.fits(widths):
                self.staged = flight
                self._staged_at = (dispatcher.freed, replicas.changes)
                return  # head-of-line: wait for the pools to drain
            self.staged = None
            self._dispatch(flight)

    def _dispatch(self, flight: Flight) -> None:
        """Attach one flight's legs to the pools, each on the
        least-loaded serving replica of its shard at this instant."""
        placements = {}
        for shard, (race, _) in sorted(flight.races.items()):
            placed = self.replicas.place(shard, width=race.width)
            if placed is None:
                self.degrade(flight, f"shard {shard} has no serving replica")
                return
            placements[shard] = placed
        tid, clock = flight.ticket.id, self.dispatcher.clock
        self.tracer.end(tid, flight.queue_span, clock)
        flight.queue_span = None
        self.tracer.event(tid, "dispatch", clock, fanout=len(flight.races))
        for shard, built in sorted(flight.races.items()):
            self._launch(flight, shard, built, placements[shard])
        flight.ticket.start_time = clock
        flight.ticket.fanout = len(flight.races)

    def _launch(self, flight: Flight, shard: int, built=None, placed=None,
                **attrs) -> bool:
        """Race one leg: place it (unless ``placed``), build its race
        at its planned offset (unless ``built``), admit it, record it
        and open its ``leg`` span.  A shard with no serving replica
        degrades the ticket (False)."""
        if placed is None:
            placed = self.replicas.place(shard)
            if placed is None:
                self.degrade(flight, f"shard {shard} has no serving replica")
                return False
        pool, replica = placed
        race, flight.id_maps[shard] = built or self.planner.build(
            flight, shard, flight.offsets[shard]
        )
        tid = flight.ticket.id
        self.dispatcher.admit((tid, shard), race, pool=pool)
        flight.pending.add(shard)
        flight.replica_of[shard] = replica
        flight.leg_spans[shard] = self.tracer.begin(
            tid, "leg", self.dispatcher.clock,
            shard=shard, replica=replica, pool=pool, **attrs,
        )
        return True

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------

    def shard_done(
        self, flight: Flight, shard: int, outcome: RaceOutcome
    ) -> Optional[RaceOutcome]:
        """Record one shard's outcome; the merged outcome once the
        fan-out resolves (the flight is then closed), else None.

        First-true short-circuit: in decision-only mode a shard that
        found a match settles the query, so the siblings' remaining
        budget is cancelled (their partial work stays charged — it was
        really done).  A sibling whose start was never reached did no
        work and counts as skipped, not cancelled.
        """
        tid, clock = flight.ticket.id, self.dispatcher.clock
        self.planner.settled(flight, outcome)
        flight.pending.discard(shard)
        flight.outcomes[shard] = outcome
        self.tracer.end(
            tid, flight.leg_spans.pop(shard, None), clock,
            found=outcome.found, steps=outcome.steps,
        )
        skipped = []
        if flight.options.decision_only and outcome.found:
            for sibling in sorted(flight.pending):
                # None: the sibling finished earlier in this same tick
                race = self.dispatcher.cancel((tid, sibling))
                if race is not None and race.target <= min(race.starts):
                    skipped.append(sibling)
                    self.waves_skipped.inc()
                else:
                    flight.cancelled.append(sibling)
                    self.shard_cancelled.inc()
                self.tracer.end(
                    tid, flight.leg_spans.pop(sibling, None), clock,
                    cancelled=True,
                )
            flight.pending.clear()
        if flight.pending:
            return None
        self.close(tid)
        self._account_waste(flight)
        self.tracer.event(
            tid, "merge", clock,
            shards=sorted(flight.outcomes),
            cancelled=sorted(flight.cancelled),
            skipped=skipped,
        )
        return merge_shard_outcomes(flight.outcomes, flight.id_maps)

    def _account_waste(self, flight: Flight) -> None:
        """Bill non-contributing shard races to ``fanout_waste``.

        A shard race "contributed" iff it found a match; in a fan-out
        that raced at least two shards, every step billed to matchless
        (or cancelled) shard races is work the merged outcome never
        used.  Single-race fan-outs have no siblings to waste.
        """
        if len(flight.outcomes) + len(flight.cancelled) < 2:
            return
        for shard, work in flight.work.items():
            race = flight.outcomes.get(shard)
            if race is None or not race.found:
                self.fanout_waste.inc(work)

    # ------------------------------------------------------------------
    # faults: reroute and degrade
    # ------------------------------------------------------------------

    def legs_on(self, shard: int) -> dict:
        """replica -> number of in-flight legs of ``shard`` on it."""
        legs: dict = {}
        for flight in self.flights.values():
            if shard in flight.pending:
                replica = flight.replica_of.get(shard)
                legs[replica] = legs.get(replica, 0) + 1
        return legs

    def replica_lost(self, shard: int, replica: int) -> None:
        """Reroute every in-flight leg a killed replica carried."""
        for tid in sorted(self.flights):
            flight = self.flights.get(tid)
            if (
                flight is not None  # degraded by an earlier reroute
                and shard in flight.pending
                and flight.replica_of.get(shard) == replica
            ):
                self.tracer.event(
                    tid, "fault_kill", self.dispatcher.clock,
                    shard=shard, replica=replica,
                )
                self.reroute(flight, shard, lost=True)

    def fail_one_task(self, shard: int = -1) -> bool:
        """Abort one in-flight leg (the worker-crash drill); False when
        no leg qualifies.

        The victim is the lowest active ``(tid, shard)`` token (of the
        given shard, or any) whose fan-out is still open; it restarts
        from scratch on the least-loaded live replica — possibly the
        same one, a crash is not a death sentence for the pool.
        """
        flights = self.flights
        tokens = sorted(
            t
            for t in self.dispatcher.tokens()
            if isinstance(t, tuple)
            and t[0] in flights
            and t[1] in flights[t[0]].pending
            and (shard < 0 or t[1] == shard)
        )
        if not tokens:
            return False
        tid, s = tokens[0]
        self.tasks_failed.inc()
        self.tracer.event(tid, "fault_task", self.dispatcher.clock, shard=s)
        self.reroute(flights[tid], s, lost=False)
        return True

    def reroute(self, flight: Flight, shard: int, lost: bool) -> None:
        """Re-admit one leg after its replica died or its task failed.

        Cancel the old race and launch a fresh one under the same
        ticket token on the least-loaded serving replica.  The rebuilt
        race runs the same deterministic engines with the ticket's full
        step budget from the leg's planned offset (a hedged leg keeps
        its head start), so a leg that completes after N retries
        answers bit-for-bit what it would have healthy — only its bill
        and latency carry the scar.  Retries are bounded per ticket;
        exhaustion (or a shard with no replica left) degrades the
        ticket instead of looping.
        """
        ticket, clock = flight.ticket, self.dispatcher.clock
        self.dispatcher.cancel((ticket.id, shard))
        ticket.retries += 1
        self.retries.inc()
        self.tracer.end(
            ticket.id, flight.leg_spans.pop(shard, None), clock,
            outcome="lost" if lost else "failed",
        )
        self.tracer.event(
            ticket.id, "retry", clock,
            shard=shard, lost=lost, attempt=ticket.retries,
        )
        if ticket.retries > self.max_retries:
            self.degrade(
                flight,
                f"retry budget exhausted ({self.max_retries}) "
                f"rerouting shard {shard}",
            )
            return
        old_replica = flight.replica_of.get(shard)
        if self._launch(flight, shard, retry=ticket.retries) and (
            lost or flight.replica_of[shard] != old_replica
        ):
            self.rerouted.inc()

    def degrade(self, flight: Flight, reason: str) -> None:
        """Refuse a ticket the topology can no longer answer fully.

        Partial answers are never returned: a fan-out missing a
        shard's contribution would silently drop matches, so the whole
        ticket (and its coalesced followers) resolves REJECTED with a
        ``degraded`` mark and a ``retry_after`` hint, while the service
        keeps serving everything that doesn't need the dark shard.
        """
        ticket, clock = flight.ticket, self.dispatcher.clock
        tid = ticket.id
        self.close(tid)
        for shard in sorted(flight.pending):
            self.dispatcher.cancel((tid, shard))
            self.tracer.end(
                tid, flight.leg_spans.pop(shard, None), clock,
                cancelled=True,
            )
        flight.pending.clear()
        self.tracer.end(tid, flight.queue_span, clock)
        retry_after = clock + DEGRADED_RETRY_AFTER
        self._reject(ticket, reason, retry_after)
        self.tracer.event(tid, "degraded", clock, reason=reason)
        self.tracer.finish(
            tid, clock, state="rejected", degraded=True,
            reason=reason, retry_after=retry_after,
        )
        self.admission.on_complete(ticket)
        for follower in flight.followers:
            self._reject(follower, reason, retry_after)
            self.admission.release_coalesced(follower)
            self.tracer.finish(
                follower.id, clock, state="rejected", degraded=True,
                coalesced=True, leader=tid, reason=reason,
                retry_after=retry_after,
            )

    def _reject(self, ticket: Ticket, reason: str, retry_after: int) -> None:
        ticket.state = TicketState.REJECTED
        ticket.degraded = True
        ticket.reject_reason = f"degraded: {reason}"
        ticket.retry_after = retry_after
        ticket.finish_time = self.dispatcher.clock
        self.degraded.inc()
        self.degraded_now.append(ticket)

    def drain_degraded(self) -> list[Ticket]:
        """Tickets degraded since the last call."""
        drained, self.degraded_now = self.degraded_now, []
        return drained
