"""`repro.service` façade: submit queries, pump ticks, read stats.

:class:`Service` is the pump over the serving pieces, each the one
owner of what it records (``docs/ARCHITECTURE.md`` has the table): the
sharded catalog, the replica set, admission, the race planner, the
fan-out coordinator, the dispatcher, the mutation applier, the result
cache and the stats view.  None of them holds the service.

The contract that makes the service *testable against the paper's
machinery*: a query served alone produces bit-for-bit the same
:class:`RaceOutcome` as ``PsiNFV.race`` with the interleaved executor,
and concurrency never changes any query's winner or step bill — only
its latency.  Everything is virtual-time deterministic: two runs of the
same submission history give identical results, latencies included.

A served collection is always sharded: the submit path fans each query
out into one race per involved shard of ``Service(shards=N)``, runs
them on per-shard worker pools, and merges the outcomes
(:func:`repro.service.sharding.merge_shard_outcomes`) — decision
answers are bit-for-bit identical for every N, and the result cache
keys on (query, collection) so all layouts share hits.  ``shards=1,
replicas=1`` (the default) is one shard, one replica, pool 0 of the
same plumbing, not a second code path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from ..graphs import LabeledGraph
from ..obs import Counter, MetricsRegistry, Tracer
from ..psi.executors import RaceOutcome
from ..psi.variants import Variant
from .admission import AdmissionController, Ticket, TicketState
from .cache import CachedResult, ResultCache
from .dispatcher import Dispatcher
from .fanout import FanOut, Flight
from .faults import FaultEvent, FaultInjector, ReplicaState
from .mutations import MutationApplier, MutationTicket
from .planner import QueryOptions, RacePlanner
from .replicas import ReplicaSet
from .sharding import ShardedCatalog
from .stats import StatsView

__all__ = [
    "QueryOptions",
    "ServiceResult",
    "MutationTicket",
    "Service",
    "results_digest",
    "answers_digest",
    "decisions_digest",
]


@dataclass(frozen=True)
class ServiceResult:
    """What a ticket resolves to."""

    found: bool
    killed: bool
    steps: int
    winner: Optional[Variant]
    num_embeddings: int
    per_variant_steps: tuple  # ((variant, steps), ...)
    from_cache: bool = False
    #: resolved by attaching to an identical in-flight query's race
    coalesced: bool = False
    matching_ids: tuple = ()  # FTV decision answers

    @property
    def winner_label(self) -> str:
        """Render-friendly winner name."""
        if self.winner is None:
            return "killed"
        return self.winner.label


def _digest(tickets: list[Ticket], line) -> str:
    """Order-independent digest of the ``line`` each resolved ticket
    contributes (``line(ticket, result)``): sorted, joined, sha256[:16]."""
    lines = sorted(
        line(t, r)
        for t in tickets
        if isinstance((r := t.result), ServiceResult)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def results_digest(tickets: list[Ticket]) -> str:
    """Order-independent digest of a workload's results.

    Two deterministic runs of the same workload must agree on this —
    the acceptance check for "same winners / step totals across runs".
    """
    return _digest(tickets, lambda t, r: (
        f"{t.tenant}/{t.query.name}:{r.winner_label}:{r.steps}:"
        f"{int(r.found)}:{t.latency}"
    ))


def answers_digest(tickets: list[Ticket]) -> str:
    """Order-independent digest of a workload's *decision answers*.

    Unlike :func:`results_digest` this covers only the
    sharding-invariant parts of each result — found / embedding count /
    matching ids / killed — and none of the historical bill (steps,
    winner, latency).  Runs of the same workload over any number of
    shards must agree on this digest whenever no query was
    budget-killed; that equality is the acceptance check for "sharding
    never changes a completed answer".  Killed answers are
    execution-dependent (each shard race carries its own kill cap), so
    the killed flag is hashed precisely so that any such divergence
    surfaces loudly instead of passing as equal.
    """
    return _digest(tickets, lambda t, r: (
        f"{t.tenant}/{t.query.name}:{int(r.found)}:{r.num_embeddings}:"
        f"{','.join(str(i) for i in r.matching_ids)}:{int(r.killed)}"
    ))


def decisions_digest(tickets: list[Ticket]) -> str:
    """Order-independent digest of a workload's *existence answers*.

    The invariant for ``decision_only`` workloads: in decision mode
    only ``found`` is answer-contractual (``matching_ids`` may be any
    witness subset, so :func:`answers_digest` legitimately differs
    between layouts and between routed and unrouted fan-outs), and this
    digest hashes exactly ``found`` plus the ``killed`` taint.  Routed,
    unrouted, one-shard and many-shard runs of the same decision
    workload must all agree on it whenever nothing was budget-killed.
    """
    return _digest(tickets, lambda t, r: (
        f"{t.tenant}/{t.query.name}:{int(r.found)}:{int(r.killed)}"
    ))


def _unraceable(
    query: LabeledGraph, options: QueryOptions, width: int, workers: int
) -> Optional[str]:
    """Why a ticket for ``query`` under ``options`` racing ``width``
    variants can never race on a ``workers``-wide pool, or None: an
    empty query (no matcher has a vertex to start from), a variant name
    no registry resolves, or a race wider than the pool."""
    # deferred: the spec module builds services, so it imports this one
    from .spec import SpecError, _algorithm, _rewriting, check_tuple

    if not query.order:
        return "query: has no vertex"
    try:
        check_tuple(_algorithm, nonempty=True)(
            options.algorithms, "options.algorithms"
        )
        check_tuple(_rewriting, nonempty=True)(
            options.rewritings, "options.rewritings"
        )
    except SpecError as exc:
        return str(exc)
    if width > workers:
        return f"{width} variants exceed the {workers}-worker pool"
    return None


class Service:
    """A concurrent graph-query serving layer over the Ψ machinery.

    The constructor takes what a :class:`~repro.service.spec.ServiceSpec`
    can say (plus its two deployment paths) and nothing else — what a
    deployment can configure is what a spec can express.
    """

    def __init__(
        self,
        workers: int = 4,
        admission: Optional[AdmissionController] = None,
        coalesce: bool = True,
        shards: int = 1,
        replicas: int = 1,
        routing: bool = True,
        assignment: str = "size_balanced",
        store=None,
        journal=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        #: every collection is ``shards`` >= 1 partitions, each on
        #: ``replicas`` >= 1 pools of ``workers`` slots
        self.catalog = ShardedCatalog(
            num_shards=shards,
            assignment=assignment,
            replicas=replicas,
            store=store,
        )
        self.admission = admission or AdmissionController()
        self.cache = ResultCache()
        self.dispatcher = Dispatcher(workers=workers, pools=shards * replicas)
        #: attach identical in-flight canonical keys to the running
        #: race's ticket instead of racing twice
        self.coalesce = coalesce
        #: the metrics registry (names in ``service/stats.py``);
        #: :meth:`stats` is a read of it
        self.metrics = metrics = MetricsRegistry()
        #: per-ticket trace spans, bounded ring buffer
        self.tracer = Tracer()
        self.replica_set = ReplicaSet(self.catalog, self.dispatcher)
        # one shard has nothing to prune or order between
        self.planner = RacePlanner(
            self.dispatcher, self.tracer, routing and shards > 1
        )
        self.fanout = FanOut(
            self.dispatcher, self.admission, self.replica_set,
            self.planner, self.tracer,
        )
        self.mutations = MutationApplier(
            self.catalog, self.replica_set, journal
        )
        self.stats_view = StatsView(
            metrics, self.dispatcher, self.catalog, self.replica_set,
            self.admission, self.cache, self.tracer, self.planner,
            self.fanout, self.mutations,
        )
        self.completed_count = metrics.counter("service.completed")
        #: scheduled fault injections (None = healthy run; armed
        #: through :meth:`install_faults`)
        self.faults: Optional[FaultInjector] = None
        #: injected events that found nothing to act on
        self.faults_noop = Counter()
        metrics.gauge("service.faults", self._fault_report)
        #: next synthetic ticket id for non-query trace records (store
        #: boots, replica grows); counts down so it can never collide
        #: with real ticket ids, which are positive
        self._synthetic_trace_id = -1
        if self.catalog.store is not None:
            self.catalog.store.register_metrics(metrics)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def load_dataset(self, name: str, scale: str = "default", **kw) -> None:
        """Load + warm a dataset through the catalog."""
        self.catalog.load(name, scale=scale, **kw)

    @property
    def clock(self) -> int:
        """The service's virtual step clock."""
        return self.dispatcher.clock

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        dataset: str,
        query: LabeledGraph,
        tenant: str = "public",
        options: Optional[QueryOptions] = None,
        budget_steps: Optional[int] = None,
    ) -> Ticket:
        """Submit one query; returns immediately with a :class:`Ticket`.

        Cache hits resolve at submit time with zero latency; an
        identical in-flight canonical key coalesces onto the running
        race's ticket; everything else goes through admission and the
        dispatcher.
        """
        if budget_steps is not None and budget_steps < 1:
            raise ValueError("budget_steps must be >= 1")
        entry = self.catalog.get(dataset)
        options = options or QueryOptions()
        ticket = self.admission.issue(
            tenant, dataset, query, self.clock, budget_steps
        )
        self.tracer.start(
            ticket.id,
            self.clock,
            tenant=tenant,
            dataset=dataset,
            query=query.name,
            budget=ticket.budget_steps,
        )
        variants = options.variants(entry.kind)
        reason = _unraceable(
            query, options, len(variants), self.dispatcher.workers
        )
        if reason is not None:
            ticket.state = TicketState.REJECTED
            ticket.reject_reason = reason
            ticket.finish_time = ticket.submit_time
            self.admission.rejected.inc()
            self.tracer.finish(
                ticket.id,
                self.clock,
                state="rejected",
                reason=ticket.reject_reason,
            )
            return ticket
        context = (
            dataset,
            entry.scale,
            entry.kind,
            options.signature(entry.kind),
            ticket.budget_steps,
            # collection-state stamp: every applied add/remove bumps
            # the catalog's mutation epoch, so a canonical twin served
            # before a mutation can never answer for one served after
            # it (constant 0 over a mutation-free run — pure-query
            # digests are untouched)
            self.catalog.mutation_epoch,
        )
        key = self.cache.key_for(query, context)
        cached = self.cache.lookup(key)
        if cached is not None:
            ticket.state = TicketState.DONE
            ticket.finish_time = ticket.submit_time
            ticket.cache_hit = True
            ticket.result = ServiceResult(
                found=cached.found,
                killed=False,
                steps=cached.steps,
                winner=cached.winner,
                num_embeddings=cached.num_embeddings,
                per_variant_steps=cached.per_variant_steps,
                from_cache=True,
                matching_ids=cached.matching_ids,
            )
            self._completed(0)
            self.tracer.event(ticket.id, "cache_hit", self.clock)
            self.tracer.finish(
                ticket.id, self.clock, state="done", cache_hit=True
            )
            return ticket
        if self.coalesce and key is not None:
            leader = self.fanout.leaders.get(key)
            if leader is not None:
                # identical query + context already racing: ride along
                # (bounded by the tenant's max_queued allowance)
                ticket = self.admission.attach_coalesced(ticket)
                if ticket.state is not TicketState.REJECTED:
                    self.fanout.flights[leader].followers.append(ticket)
                    self.tracer.event(
                        ticket.id,
                        "coalesce_attach",
                        self.clock,
                        leader=leader,
                    )
                else:
                    self.tracer.finish(
                        ticket.id,
                        self.clock,
                        state="rejected",
                        reason=ticket.reject_reason,
                        retry_after=ticket.retry_after,
                    )
                return ticket
        ticket = self.admission.enqueue(ticket)
        if ticket.state is TicketState.QUEUED:
            self.fanout.open(Flight(
                ticket, entry, options, key, variants,
                queue_span=self.tracer.begin(ticket.id, "queue", self.clock),
            ))
        elif ticket.state is TicketState.REJECTED:
            self.tracer.finish(
                ticket.id,
                self.clock,
                state="rejected",
                reason=ticket.reject_reason,
                retry_after=ticket.retry_after,
            )
        return ticket

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------

    def pump(self) -> list[Ticket]:
        """One scheduling tick; returns tickets completed this tick
        (coalesced followers resolve alongside their leader, and
        tickets degraded by a fault count as completed-with-refusal so
        closed loops see their slots free up)."""
        fanout = self.fanout
        # mutations apply only at quiesce points: no ticket queued,
        # staged, or racing may observe the collection mid-change
        # (coalesced followers only exist while their leader is open)
        if self.mutations.pending and not fanout.flights:
            self.mutations.apply_pending()
        fanout.hedge_due()
        fanout.admit()
        # scheduled faults fire after admission, before the tick: this
        # tick's legs are already placed, so a due kill genuinely hits
        # mid-flight work (and its reroutes run in this same tick)
        self._apply_due_faults()
        if self.dispatcher.active == 0:
            return fanout.drain_degraded()
        events = self.dispatcher.tick(
            fanout.priority_order(self.admission.ledger),
            frozen=self.replica_set.frozen_pools(),
        )
        # only a tick moves the clock, so wedges expire right after it:
        # one due now expires even if this tick leaves the service idle
        # and it is never pumped again
        self.replica_set.unwedge_expired(self.clock)
        flights = fanout.flights
        # pass 1: bill every shard's work this tick while all tickets
        # are still open — a shard whose sibling settles the query this
        # same tick still really did its final round
        for (tid, shard), work, _outcome in events:
            flight = flights[tid]
            self.admission.charge(flight.ticket.tenant, work)
            flight.work[shard] = flight.work.get(shard, 0) + work
        completed: list[Ticket] = []
        for (tid, shard), _work, outcome in events:
            flight = flights.get(tid)
            if outcome is None or flight is None:
                # None: a sibling shard's first-true decision already
                # settled this ticket earlier in the tick
                continue
            merged = fanout.shard_done(flight, shard, outcome)
            if merged is not None:
                self._finalize(flight, merged)
                completed.append(flight.ticket)
                completed.extend(self._resolve_followers(flight))
        completed.extend(fanout.drain_degraded())
        return completed

    def _completed(self, latency: int) -> None:
        self.completed_count.inc()
        self.stats_view.observe_latency(latency)

    def _finalize(self, flight: Flight, race: RaceOutcome) -> None:
        ticket = flight.ticket
        outcome = race.outcome
        matching = (
            tuple(getattr(outcome, "matching_ids", ()))
            if outcome is not None
            else ()
        )
        per_variant = tuple(race.per_variant_steps.items())
        result = ServiceResult(
            found=race.found,
            killed=race.killed,
            steps=race.steps,
            winner=race.winner,
            num_embeddings=(
                outcome.num_embeddings if outcome is not None else 0
            ),
            per_variant_steps=per_variant,
            matching_ids=matching,
        )
        ticket.state = TicketState.DONE
        ticket.finish_time = self.clock
        ticket.result = result
        self.admission.on_complete(ticket)
        self._completed(ticket.latency or 0)
        if not race.killed:
            cached = CachedResult(
                found=result.found,
                num_embeddings=result.num_embeddings,
                steps=result.steps,
                winner=result.winner,
                per_variant_steps=per_variant,
                matching_ids=matching,
            )
            self.cache.store(flight.key, cached)
            self.tracer.event(ticket.id, "cache_store", self.clock)
        self.tracer.finish(
            ticket.id,
            self.clock,
            state="done",
            winner=result.winner_label,
            found=result.found,
            killed=result.killed,
            steps=result.steps,
        )

    def _resolve_followers(self, flight: Flight) -> list[Ticket]:
        """Resolve coalesced followers with their leader's result.

        Followers report the leader's race verbatim (the result cache's
        historical-bill convention) at the leader's finish tick; their
        latency still runs from their own submit time.
        """
        leader_id = flight.ticket.id
        resolved = replace(flight.ticket.result, coalesced=True)
        for ticket in flight.followers:
            ticket.state = TicketState.DONE
            ticket.finish_time = self.clock
            ticket.result = resolved
            self.admission.release_coalesced(ticket)
            self._completed(ticket.latency or 0)
            self.tracer.event(
                ticket.id, "coalesced_result", self.clock, leader=leader_id
            )
            self.tracer.finish(
                ticket.id,
                self.clock,
                state="done",
                coalesced=True,
                leader=leader_id,
            )
        return flight.followers

    @property
    def idle(self) -> bool:
        """True when no queued, staged, or running work remains (and
        no degraded ticket is still waiting to be handed back, and no
        mutation is still waiting for its quiesce point)."""
        return (
            self.dispatcher.active == 0
            and self.admission.queued() == 0
            and self.fanout.staged is None
            and not self.fanout.degraded_now
            and not self.mutations.pending
        )

    def run_until_idle(self, max_ticks: int = 10_000_000) -> list[Ticket]:
        """Pump until no queued or running work remains."""
        done: list[Ticket] = []
        for _ in range(max_ticks):
            if self.idle:
                return done
            done.extend(self.pump())
        raise RuntimeError("service did not drain within max_ticks")

    # ------------------------------------------------------------------
    # fault injection and replica scaling
    # ------------------------------------------------------------------

    def install_faults(self, injector: Optional[FaultInjector]) -> None:
        """Arm (or disarm, with None) a fault-injection schedule."""
        self.faults = injector
        if injector is not None:
            injector.register_metrics(self.metrics)

    def _apply_due_faults(self) -> None:
        """Fire every scheduled fault whose threshold has been crossed."""
        if self.faults is None:
            return
        for event in self.faults.due(
            self.clock, self.completed_count.value
        ):
            self._apply_fault(event)

    def _apply_fault(self, event: FaultEvent) -> None:
        if event.kind == "kill":
            replica = event.replica
            if replica < 0:
                replica = self.replica_set.busiest(
                    event.shard, self.fanout.legs_on(event.shard)
                )
                if replica is None:
                    self.faults_noop.inc()
                    return
            self.kill_replica(event.shard, replica)
        elif event.kind == "wedge":
            self.wedge_replica(event.shard, event.replica, event.ticks)
        elif not self.fanout.fail_one_task(event.shard):  # fail_task
            self.faults_noop.inc()

    def kill_replica(self, shard: int, replica: int) -> None:
        """Kill one replica permanently (fault drills call this).

        The replica's warm state is released, every in-flight leg it
        carried is rerouted to a surviving replica of the shard (same
        ticket, fresh race, full budget — determinism makes the re-run
        answer-identical), and new work never lands on it again; a
        shard whose only replica dies goes dark, and tickets needing it
        degrade with a ``retry_after``.  Killing a replica the shard
        does not serve with (dead, retired or never made) is a counted
        no-op; a shard out of range raises ValueError.
        """
        if self.replica_set.kill(shard, replica):
            self.fanout.replica_lost(shard, replica)
        else:
            self.faults_noop.inc()

    def wedge_replica(
        self, shard: int, replica: int, ticks: int
    ) -> None:
        """Freeze one replica's pool for ``ticks`` scheduler ticks.

        The straggler drill: the replica is SUSPECT while wedged (new
        placements avoid it when a live sibling exists), its races
        stall in place, and it returns to LIVE when the wedge expires.
        Wedging a replica the shard does not serve with is a counted
        no-op; a shard out of range raises ValueError.
        """
        until = self.clock + max(1, ticks) * self.dispatcher.quantum
        if not self.replica_set.wedge(shard, replica, until):
            self.faults_noop.inc()

    def _fault_report(self) -> dict:
        fanout = self.fanout
        return {
            "injected": (
                len(self.faults.applied) if self.faults is not None else 0
            ),
            "retries": fanout.retries.value,
            "rerouted": fanout.rerouted.value,
            "degraded": fanout.degraded.value,
            "tasks_failed": fanout.tasks_failed.value,
            "noop": self.faults_noop.value,
        }

    def add_replica(self, shard: int) -> int:
        """Scale one shard out by a replica (and its dispatcher pool).
        Returns the new replica id.

        Beside a live sibling the newcomer serves the shard's warm
        partition as it stands.  On a dark shard it re-warms the
        partition — with a store attached from disk (an O(read)
        restore instead of an in-process rebuild).  With a store
        attached every grow gets its own trace under a synthetic
        negative ticket id: a ``store_boot`` span whose child events
        replay exactly what the store reader saw (verifications,
        corruption quarantines, rebuild fallbacks) and whose
        ``restores`` is 0 when nothing was warmed.
        """
        self.catalog.check_shard(shard)
        store = self.catalog.store
        if store is None:
            return self.replica_set.add(shard)
        tid = self._synthetic_trace_id
        self._synthetic_trace_id -= 1
        self.tracer.start(tid, self.clock, kind="add_replica", shard=shard)
        span = self.tracer.begin(tid, "store_boot", self.clock)
        events_before = len(store.events)
        restores_before = store.restores
        rebuilds_before = store.rebuilds
        replica = self.replica_set.add(shard)
        for ev in store.events[events_before:]:
            attrs = {k: v for k, v in ev.items() if k != "event"}
            self.tracer.event(
                tid,
                f"store.{ev.get('event', 'event')}",
                self.clock,
                parent=span,
                **attrs,
            )
        self.tracer.end(
            tid,
            span,
            self.clock,
            restores=store.restores - restores_before,
            rebuilds=store.rebuilds - rebuilds_before,
        )
        self.tracer.finish(tid, self.clock, replica=replica)
        return replica

    def retire_replica(
        self, shard: int, replica: Optional[int] = None
    ) -> Optional[int]:
        """Scale one shard in by retiring a LIVE replica at quiesce.

        Unlike a kill this is voluntary and safe: it requires an idle
        service (no legs to lose) and never removes the last live
        replica.  Returns the retired replica id, or None when the
        shard cannot shrink.
        """
        if not self.idle:
            raise RuntimeError(
                "retire_replica is a quiesce-point operation; the "
                "service is not idle"
            )
        return self.replica_set.retire(shard, replica)

    # ------------------------------------------------------------------
    # dynamic collections: journaled mutations at quiesce points
    # ------------------------------------------------------------------

    def submit_mutation(
        self,
        dataset: str,
        op: str,
        graph: Optional[LabeledGraph] = None,
        graph_id: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> MutationTicket:
        """Queue one ``add_graph``/``remove_graph``; returns immediately.

        The mutation stays ``pending`` until the service reaches a
        quiesce point (no query queued, staged, or racing) — mutations
        never interleave with a fan-out that holds id maps into the
        old collection state.  See
        :class:`~repro.service.mutations.MutationApplier`.
        """
        return self.mutations.submit(dataset, op, graph, graph_id, shard)

    def add_graph(
        self,
        dataset: str,
        graph: LabeledGraph,
        shard: Optional[int] = None,
    ) -> MutationTicket:
        """Convenience: queue an ``add_graph`` mutation."""
        return self.submit_mutation(
            dataset, "add_graph", graph=graph, shard=shard
        )

    def remove_graph(self, dataset: str, graph_id: int) -> MutationTicket:
        """Convenience: queue a ``remove_graph`` mutation."""
        return self.submit_mutation(
            dataset, "remove_graph", graph_id=graph_id
        )

    def replay_journal(self):
        """Recover the journal and re-apply its surviving suffix (the
        cold-boot step); the
        :class:`~repro.store.journal.RecoveryReport`."""
        return self.mutations.replay()

    def checkpoint_store(self, root) -> dict:
        """Persist the catalog and fold the journal into the manifest
        (a quiesce-point operation)."""
        if not self.idle:
            raise RuntimeError(
                "checkpoint_store is a quiesce-point operation; the "
                "service is not idle"
            )
        return self.mutations.checkpoint(root)

    # ------------------------------------------------------------------
    # stats and traces
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """One JSON-ready snapshot of every serving metric.

        Assembled entirely from the metrics registry — each key is the
        metric registered as ``service.<key>``; use
        ``self.metrics.snapshot()`` for the full namespace (histogram,
        trace-buffer occupancy, store and rebalance counters) beyond
        this stable contract.  It only reads counters: the catalog's
        byte accounting is :meth:`memory`.
        """
        return self.stats_view.stats()

    def memory(self) -> dict:
        """Approximate bytes per shard and dataset, walked by the first
        call after each load or mutation (``docs/OBSERVABILITY.md``)."""
        replicas = self.replica_set
        return {
            **self.catalog.memory_report(),
            "replicas_added": replicas.added,
            "replicas_released": replicas.released,
        }

    def store_metrics(self) -> dict:
        """Counters of the attached artifact store reader ({} when the
        service runs without persistence)."""
        store = self.catalog.store
        return store.as_metrics() if store is not None else {}

    def trace(self, ticket_id: int):
        """The recorded span tree for one ticket (None if never traced
        or already evicted from the ring buffer)."""
        return self.tracer.get(ticket_id)

    def export_traces(self, dest) -> int:
        """Dump every buffered trace as JSONL (path or file object);
        returns the number of traces written."""
        return self.tracer.export_jsonl(dest)
