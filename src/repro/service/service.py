"""`repro.service` façade: submit queries, pump ticks, read stats.

:class:`Service` composes the four serving pieces:

* :class:`~repro.service.sharding.ShardedCatalog` — warm datasets,
  each a collection of N >= 1 shards;
* :class:`~repro.service.admission.AdmissionController` — queues,
  per-tenant caps, fair share;
* :class:`~repro.service.dispatcher.Dispatcher` — many Ψ races over a
  bounded simulated worker pool, one quantum per tick;
* :class:`~repro.service.cache.ResultCache` — canonical-form result
  cache.

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
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from ..graphs import LabeledGraph
from ..indexing import LabelInterner, coded_path_census
from ..matching import Budget, MatchOutcome, VF2Matcher
from ..obs import MetricsRegistry, Tracer
from ..psi.executors import RaceOutcome
from ..psi.variants import Variant, variants_from_spec
from ..rewriting import make_rewriting
from .admission import AdmissionController, Ticket, TicketState
from .cache import CachedResult, ResultCache
from .catalog import DatasetEntry
from .dispatcher import Dispatcher, RaceTask
from .faults import FaultEvent, FaultInjector, ReplicaState
from .rebalance import coldest_shard, shard_loads
from .sharding import ShardedCatalog, ShardedEntry, merge_shard_outcomes

__all__ = [
    "QueryOptions",
    "ServiceResult",
    "MutationTicket",
    "Service",
    "results_digest",
    "answers_digest",
    "decisions_digest",
]

#: ticks a routed decision wave races alone before the next wave
#: hedge-launches anyway: the fast common case (the expected-first-true
#: shard settles within the hedge) never pays sibling work, while a
#: slow first wave falls back to near-parallel racing instead of
#: serialising the tail
HEDGE_TICKS = 1
#: retry-after hint (virtual steps) handed to degraded tickets and to
#: retryably rejected mutations
DEGRADED_RETRY_AFTER = 4_096
#: safety limits, not deployment settings: each initialises the
#: instance attribute of the same name
MAX_RETRIES = 3
MAX_PENDING_MUTATIONS = 256


@dataclass(frozen=True)
class QueryOptions:
    """Per-query execution configuration.

    For NFV datasets the race runs ``algorithms x rewritings``; for FTV
    datasets verification is VF2 (the paper's FTV mode) and only
    ``rewritings`` vary.

    ``decision_only`` asks for the existence answer, not the full one:
    FTV sweeps stop at their first matching graph and NFV races stop at
    their first embedding, and the first shard to find a match cancels
    its siblings' remaining budget (the paper's first-winner semantics
    applied across partitions).  Only ``found``
    is answer-contractual in this mode — ``matching_ids`` may be any
    nonempty witness subset — so it gets its own cache-key signature.
    """

    algorithms: tuple[str, ...] = ("GQL", "SPA")
    rewritings: tuple[str, ...] = ("Orig", "DND")
    max_embeddings: int = 1000
    count_only: bool = True
    decision_only: bool = False

    def variants(self, kind: str) -> tuple[Variant, ...]:
        """The race's variant set for a dataset kind."""
        if kind == "ftv":
            return tuple(Variant("VF2", r) for r in self.rewritings)
        return variants_from_spec(self.algorithms, self.rewritings)

    def signature(self, kind: str) -> tuple:
        """Hashable cache-context component."""
        return (
            self.variants(kind),
            self.max_embeddings,
            self.count_only,
            self.decision_only,
        )


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


@dataclass
class MutationTicket:
    """One submitted collection mutation and its lifecycle.

    Mutations are fenced against queries: a submitted mutation stays
    ``pending`` until a quiesce point (no ticket queued, staged, or
    racing), is journaled (append + fsync) *before* the catalog is
    touched, and only acknowledges ``applied`` after both — so a crash
    at any byte either lost an unacknowledged mutation (the client
    retries) or left a journaled record replay restores.  Rejections
    (backlog full, dark shard) carry a ``retry_after`` hint like
    degraded query tickets.
    """

    id: int
    op: str  # "add_graph" | "remove_graph"
    dataset: str
    graph: Optional[LabeledGraph] = None
    graph_id: Optional[int] = None
    #: requested placement of an add (None = coldest shard)
    shard: Optional[int] = None
    submit_time: int = 0
    apply_time: Optional[int] = None
    state: str = "pending"  # pending | applied | rejected
    reason: Optional[str] = None
    retry_after: Optional[int] = None
    #: journal sequence the mutation acked through (None = unjournaled)
    seq: Optional[int] = None

    @property
    def applied(self) -> bool:
        return self.state == "applied"

    @property
    def rejected(self) -> bool:
        return self.state == "rejected"


def results_digest(tickets: list[Ticket]) -> str:
    """Order-independent digest of a workload's results.

    Two deterministic runs of the same workload must agree on this —
    the acceptance check for "same winners / step totals across runs".
    """
    lines = sorted(
        f"{t.tenant}/{t.query.name}:{r.winner_label}:{r.steps}:"
        f"{int(r.found)}:{t.latency}"
        for t in tickets
        if isinstance((r := t.result), ServiceResult)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


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
    lines = sorted(
        f"{t.tenant}/{t.query.name}:{int(r.found)}:{r.num_embeddings}:"
        f"{','.join(str(i) for i in r.matching_ids)}:{int(r.killed)}"
        for t in tickets
        if isinstance((r := t.result), ServiceResult)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


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
    lines = sorted(
        f"{t.tenant}/{t.query.name}:{int(r.found)}:{int(r.killed)}"
        for t in tickets
        if isinstance((r := t.result), ServiceResult)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _prepare_cache_metrics() -> dict:
    """Process-global prepared-graph cache counters (import deferred:
    ``repro.caching`` must not load at service-import time)."""
    from ..caching import prepare_cache

    return prepare_cache.stats.as_metrics()


@dataclass
class _FanoutState:
    """Merge bookkeeping for one ticket's per-shard races.

    ``id_maps[shard]`` translates the shard's local graph ids to global
    ids (None = identity); ``cancelled`` records shards whose remaining
    budget a first-true decision revoked (they contribute no outcome).
    ``waves`` holds routed shard groups not yet dispatched (decision
    ordering races the expected-first-true shard alone, then the
    rest); ``skipped`` records shards whose wave never started because
    an earlier wave settled the decision; ``work`` accumulates each
    shard race's billed steps for the fan-out-waste counter.
    """

    pending: set
    outcomes: dict
    id_maps: dict
    cancelled: list
    waves: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    #: shard -> replica its in-flight leg is placed on (reroute target
    #: bookkeeping; entries for settled shards go stale harmlessly)
    replica_of: dict = field(default_factory=dict)
    #: shard -> open trace span id of its in-flight leg
    leg_spans: dict = field(default_factory=dict)
    #: virtual clock at which the next wave hedge-launches even though
    #: the current wave is still racing (None = no waves deferred)
    hedge_at: Optional[int] = None
    #: router epoch at plan time — deferred waves refuse to launch
    #: against a layout that changed under them (None = no waves)
    epoch: Optional[int] = None


class _Rewrite:
    """One rewritten form of a ticket's query, and the VF2 plan its
    sweeps search by (built by the first sweep that has a candidate)."""

    __slots__ = ("graph", "plan")

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self.plan = None


class _Scratch:
    """What one open FTV ticket works out once and every race of it —
    each shard of the first wave, a deferred wave, a rerouted leg —
    reuses: the query's path census in the collection's label code
    space, and its rewritten forms by permutation.  Lives and dies with
    the open ticket: hung on the query through the prepare cache, the
    census and the plans would outlive the race inside every cached
    query and feed the collector."""

    __slots__ = ("counts", "rewrites")

    def __init__(self) -> None:
        self.counts: Optional[dict] = None
        self.rewrites: dict[tuple, _Rewrite] = {}


class _ShardsDark(Exception):
    """Raised while building a fan-out whose plan needs a shard that
    has no serving replica left — the service degrades the ticket."""

    def __init__(self, shards: list) -> None:
        super().__init__(f"shards {shards} have no serving replica")
        self.shards = shards


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
        #: consult per-shard feature sketches before fanning out:
        #: provably-empty shards are pruned from the fan-out and
        #: decision-only fan-outs race in expected-first-true wave
        #: order.  Off (or a single shard: nothing to choose between)
        #: = bit-for-bit the unrouted fan-out.
        self.routing = routing and shards > 1
        self.admission = admission or AdmissionController()
        self.cache = ResultCache()
        self.dispatcher = Dispatcher(
            workers=workers, pools=self.catalog.pool_count
        )
        #: attach identical in-flight canonical keys to the running
        #: race's ticket instead of racing twice
        self.coalesce = coalesce
        self._verifier = VF2Matcher()
        #: ticket.id -> (ticket, entry, options, cache key, variants,
        #: what the races built so far worked out)
        self._open: dict[
            int,
            tuple[
                Ticket, ShardedEntry, QueryOptions, Optional[tuple],
                tuple, _Scratch,
            ],
        ] = {}
        #: cache key -> leader ticket.id of the in-flight race
        self._inflight_keys: dict[tuple, int] = {}
        #: leader ticket.id -> coalesced follower tickets
        self._followers: dict[int, list[Ticket]] = {}
        #: admitted-but-not-yet-dispatched (fan-out waiting for slots)
        self._staged: list[int] = []
        #: staged ticket.id -> (first-wave races, id maps, later waves)
        self._staged_races: dict[int, tuple[dict, dict, list]] = {}
        #: ticket.id -> in-flight fan-out merge state
        self._fanout: dict[int, _FanoutState] = {}
        # ---- observability ----
        #: the unified metrics registry every serving component
        #: publishes into; :meth:`stats` is a read of it
        self.metrics = MetricsRegistry()
        #: per-ticket trace spans, bounded ring buffer
        #: (:meth:`trace` / :meth:`export_traces` read it)
        self.tracer = Tracer()
        #: ticket.id -> open "queue" span id (closed at dispatch)
        self._queue_spans: dict[int, int] = {}
        _c = self.metrics.counter
        #: sibling shard races cancelled by a first-true decision
        self.shard_cancelled = _c("service.shard_cancelled")
        #: queries whose fan-out went through the shard router
        self.routed_queries = _c("service.routed_queries")
        #: shard races never built because a sketch proved them empty
        self.shards_pruned = _c("service.shards_pruned")
        #: shard races never built because an earlier wave settled the
        #: decision first (routed decision-only fan-outs)
        self.waves_skipped = _c("service.waves_skipped")
        #: virtual steps billed to shard races that contributed nothing
        #: to their merged outcome (fan-outs of >= 2 raced shards only)
        self.fanout_waste = _c("service.fanout_waste")
        #: (dataset, global graph id) -> verification steps billed to
        #: that stored graph across every FTV sweep — the per-graph
        #: load attribution the rebalancer migrates on (a size proxy
        #: cannot see that one graph of a balanced shard is hot)
        self.graph_bills: dict[tuple, int] = {}
        self.completed_count = _c("service.completed")
        # sliding window: stats() reports the most recent completions,
        # so a long-lived service doesn't grow (or re-sort) its whole
        # history per stats call
        self._latencies: deque[int] = deque(maxlen=65_536)
        #: fixed-bound latency histogram (full snapshot only —
        #: :meth:`stats` keeps reporting the windowed summary)
        self._latency_hist = self.metrics.histogram("service.latency_hist")
        # ---- replica health + fault handling ----
        #: bounded retries per ticket before it degrades: a leg lost to
        #: a dead replica (or a failed task) re-admits at most this
        #: many times across the ticket's whole fan-out
        self.max_retries = MAX_RETRIES
        #: scheduled fault injections (None = healthy run; armed
        #: through :meth:`install_faults`)
        self.faults: Optional[FaultInjector] = None
        #: (shard, replica) -> state; absent = LIVE
        self.replica_states: dict[tuple[int, int], ReplicaState] = {}
        #: (shard, replica) -> virtual clock at which a wedge expires
        self._suspect_until: dict[tuple[int, int], int] = {}
        #: tickets degraded since the last pump returned (drained into
        #: pump's completed list so closed loops see them finish)
        self._degraded_now: list[Ticket] = []
        #: chaos-path counters (surfaced in :meth:`stats`)
        self.retries = _c("service.retries")
        self.rerouted = _c("service.rerouted")
        self.degraded = _c("service.degraded")
        self.replicas_killed = _c("service.replicas_killed")
        self.replicas_wedged = _c("service.replicas_wedged")
        self.tasks_failed = _c("service.tasks_failed")
        self.replicas_retired = _c("service.replicas_retired")
        #: injected events that found nothing to act on
        self.faults_noop = _c("service.faults_noop")
        # ---- dynamic collections (journaled mutation path) ----
        #: write-ahead journal mutations ack through (path or
        #: MutationJournal; None = mutations apply unjournaled and a
        #: crash loses everything since the last store checkpoint)
        self.journal = None
        if journal is not None:
            from ..store.journal import MutationJournal

            self.journal = (
                journal
                if isinstance(journal, MutationJournal)
                else MutationJournal(journal)
            )
        #: pending-mutation backlog cap; beyond it submissions reject
        #: with a retry_after hint (the quiesce-backpressure answer)
        self.max_pending_mutations = MAX_PENDING_MUTATIONS
        #: submitted mutations awaiting the next quiesce point
        self._mutations: deque[MutationTicket] = deque()
        self._next_mutation_id = 1
        #: crash-injection hook (drills): the next journal append tears
        #: after this many bytes and raises JournalCrash pre-ack
        self.journal_fail_after: Optional[int] = None
        #: applied-seq high-water mark — replay skips seq <= this.  A
        #: store checkpoint persists it in the manifest layout, so a
        #: stale journal that survived its checkpoint replays nothing.
        self._applied_seq = self._checkpoint_seq()
        self._next_seq = max(
            self.journal.tail_seq() + 1 if self.journal else 0,
            self._applied_seq + 1,
        )
        self.mutations_applied = _c("mutations.applied")
        self.mutations_replayed = _c("mutations.replayed")
        self.mutations_rejected = _c("mutations.rejected")
        #: next synthetic ticket id for non-query trace records (store
        #: boots, replica grows); counts down so it can never collide
        #: with real ticket ids, which are positive
        self._synthetic_trace_id = -1
        self._register_stats_metrics()
        self.admission.register_metrics(self.metrics)
        self.dispatcher.register_metrics(self.metrics)
        if self.catalog.store is not None:
            self.catalog.store.register_metrics(self.metrics)

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
        if len(variants) > self.dispatcher.workers:
            ticket.state = TicketState.REJECTED
            ticket.reject_reason = (
                f"{len(variants)} variants exceed the "
                f"{self.dispatcher.workers}-worker pool"
            )
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
            self.completed_count.inc()
            self._observe_latency(0)
            self.tracer.event(ticket.id, "cache_hit", self.clock)
            self.tracer.finish(
                ticket.id, self.clock, state="done", cache_hit=True
            )
            return ticket
        if self.coalesce and key is not None:
            leader = self._inflight_keys.get(key)
            if leader is not None:
                # identical query + context already racing: ride along
                # (bounded by the tenant's max_queued allowance)
                ticket = self.admission.attach_coalesced(ticket)
                if ticket.state is not TicketState.REJECTED:
                    self._followers.setdefault(leader, []).append(ticket)
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
            self._open[ticket.id] = (
                ticket, entry, options, key, variants, _Scratch()
            )
            if key is not None:
                self._inflight_keys[key] = ticket.id
            span = self.tracer.begin(ticket.id, "queue", self.clock)
            if span is not None:
                self._queue_spans[ticket.id] = span
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
    # engines
    # ------------------------------------------------------------------

    def _build_race(
        self,
        ticket: Ticket,
        entry: DatasetEntry,
        options: QueryOptions,
        variants: tuple,
        id_map: Optional[tuple] = None,
    ) -> RaceTask:
        """The RaceTask (engines built) of one shard of one admitted
        ticket.

        ``entry`` is one shard's partition; ``variants`` is the
        portfolio fixed at submit time.  ``id_map`` translates
        shard-local graph ids to global ids (None = identity) so the
        FTV sweep can bill verification steps to the right global
        graph.  Every FTV race of one ticket — each shard
        of the first wave, a deferred wave, a rerouted leg — is built
        from the open ticket's one :class:`_Scratch`.
        """
        budget = Budget(max_steps=ticket.budget_steps)
        if entry.kind == "nfv":
            psi = entry.psi
            assert psi is not None
            rewritten = {
                v: psi.rewritten(ticket.query, v.rewriting)
                for v in variants
            }
            max_embeddings = (
                1 if options.decision_only else options.max_embeddings
            )
            engines = {
                v: psi.matcher(v.algorithm).engine(
                    psi.prepared(v.algorithm),
                    rewritten[v].graph,
                    max_embeddings=max_embeddings,
                    count_only=options.count_only,
                )
                for v in variants
            }
        else:
            engines = self._ftv_engines(
                entry, ticket, options, variants, id_map
            )
        return RaceTask(
            engines, budget=budget, quantum=self.dispatcher.quantum
        )

    def _build_races(
        self,
        ticket: Ticket,
        entry: ShardedEntry,
        options: QueryOptions,
        variants: tuple,
    ) -> tuple[dict, dict, list]:
        """First-wave races + id maps + deferred waves for one ticket.

        One race per involved shard; a one-shard collection (or an NFV
        entry, which lives whole on its home shard) is the fan-out of
        width one through the same pump loop.

        With routing on, an FTV fan-out over more than one shard is
        first planned by the entry's
        :class:`~repro.service.routing.ShardRouter`: shards
        whose sketch proves them empty are pruned *before* any filter
        or engine work happens (no ticket token, no RaceTask, nothing
        charged), and a decision-only fan-out is staged into waves —
        the expected-first-true shard races alone, the remaining
        shards are built and dispatched only if it misses.  Routing
        off (or a single involved shard) takes exactly the pre-routing
        path.
        """
        involved = entry.involved_shards()
        waves: list[tuple[int, ...]] = []
        if (
            self.routing
            and entry.router is not None
            and len(involved) > 1
        ):
            plan = entry.router.plan(
                self._census(
                    ticket, entry.interner, entry.max_path_length
                ),
                involved,
                options.decision_only,
            )
            self.routed_queries.inc()
            self.shards_pruned.inc(len(plan.pruned))
            ticket.pruned = len(plan.pruned)
            first = plan.order
            if plan.staged:
                first = plan.order[:1]
                waves = [plan.order[1:]]
            self.tracer.event(
                ticket.id,
                "route_plan",
                self.clock,
                order=list(plan.order),
                pruned=list(plan.pruned),
                staged=plan.staged,
            )
        else:
            first = involved
        dark = self._dark_shards(
            dict.fromkeys(first), [tuple(w) for w in waves]
        )
        if dark:
            raise _ShardsDark(dark)
        races: dict[int, RaceTask] = {}
        id_maps: dict[int, Optional[tuple]] = {}
        for shard in sorted(first):
            races[shard], id_maps[shard] = self._build_shard_race(
                ticket, entry, options, variants, shard
            )
        return races, id_maps, waves

    def _build_shard_race(
        self,
        ticket: Ticket,
        entry: ShardedEntry,
        options: QueryOptions,
        variants: tuple,
        shard: int,
    ) -> tuple[RaceTask, Optional[tuple]]:
        """One shard's race + local->global id map (fan-out and waves
        share this, so race construction can never diverge between a
        first wave and a deferred one)."""
        sub = entry.shard_entry(shard)
        id_map = (
            None if entry.kind == "nfv" else entry.shard_ids(shard)
        )
        race = self._build_race(ticket, sub, options, variants, id_map)
        return race, id_map

    def _census(
        self, ticket: Ticket, interner: LabelInterner, max_path_length: int
    ) -> dict:
        """The ticket's query census (feature -> count), taken once.

        ``interner`` is the collection's one label code space — the
        entry's, which every shard's index shares —
        so the counts taken for the route plan are the counts every
        shard's trie is probed with, whichever race of the ticket asks
        first.  A mutation is the only thing that extends the interner
        and applies only while no ticket is open, so no census is ever
        older than the codes it is read against.
        """
        scratch = self._open[ticket.id][5]
        if scratch.counts is None:
            query = ticket.query
            scratch.counts = coded_path_census(
                query,
                max_path_length,
                interner.encode_vertices(query.labels),
            ).counts
        return scratch.counts

    def _ftv_engines(
        self,
        entry: DatasetEntry,
        ticket: Ticket,
        options: QueryOptions,
        variants: tuple,
        id_map: Optional[tuple] = None,
    ) -> dict:
        """One composite engine per rewriting, sweeping all candidates.

        The paper's PsiFTV races per candidate pair; the service races
        whole decision sweeps (probe the index with the ticket's
        census, verify candidates in ID order) so a query is one
        schedulable race like any other.

        A rewriting is a function of the query and this partition's
        label statistics, so across a ticket's shards (and between
        variants) it mostly lands on a permutation already taken: that
        rewritten graph, its frozen kernel and its VF2 plan are then
        shared, through the ticket's :class:`_Scratch`, instead of
        rebuilt.
        """
        index = entry.ftv_index
        assert index is not None
        query = ticket.query
        candidates = index.probe(
            self._census(ticket, index.interner, index.max_path_length)
        )
        rewrites = self._open[ticket.id][5].rewrites
        engines = {}
        for variant in variants:
            perm = make_rewriting(variant.rewriting).permutation(
                query, entry.stats
            )
            rewrite = rewrites.get(perm)
            if rewrite is None:
                rewrite = rewrites[perm] = _Rewrite(
                    query.permuted(
                        perm, name=f"{query.name}:{variant.rewriting}"
                    )
                )
            engines[variant] = self._ftv_sweep(
                index, rewrite, list(candidates),
                options.decision_only, ticket.dataset, id_map,
            )
        return engines

    def _ftv_sweep(
        self, index, rewrite, candidates, decision_only,
        dataset=None, id_map=None,
    ):
        """Generator engine: first-match VF2 over each candidate.

        With ``decision_only`` the sweep settles at its first matching
        graph — the existence answer — instead of verifying the rest.
        Every yielded step batch is additionally billed to its stored
        graph's global id in :attr:`graph_bills` (the rebalancer's
        per-graph load signal); the forwarding loop yields exactly what
        ``yield from`` would, so step semantics are untouched.

        The VF2 search plan is a function of the rewritten query alone,
        so the first sweep of ``rewrite`` that has a candidate builds
        it and every engine of every sweep of it searches by that one;
        it lives as long as the ticket is open and no longer.
        """
        matched: list[int] = []
        bills = self.graph_bills
        verifier = self._verifier
        query_graph = rewrite.graph
        plan = rewrite.plan
        if plan is None and candidates:
            plan = rewrite.plan = verifier.plan(query_graph)
        for gid in candidates:
            key = (dataset, gid if id_map is None else id_map[gid])
            gen = verifier.engine(
                index.graph_index(gid),
                query_graph,
                max_embeddings=1,
                count_only=True,
                plan=plan,
            )
            consumed = 0
            try:
                while True:
                    try:
                        inc = next(gen)
                    except StopIteration as stop:
                        out = stop.value
                        break
                    consumed += 1 if inc is None else inc
                    yield inc
            finally:
                # one dict update per candidate, in a finally so a
                # budget kill mid-candidate still bills partial work
                gen.close()
                if consumed:
                    bills[key] = bills.get(key, 0) + consumed
            if out.found:
                matched.append(gid)
                if decision_only:
                    break
        final = MatchOutcome(
            found=bool(matched), num_embeddings=len(matched)
        )
        final.matching_ids = tuple(matched)
        return final

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------

    def replica_state(self, shard: int, replica: int) -> ReplicaState:
        """Health of one replica (LIVE unless marked otherwise)."""
        return self.replica_states.get(
            (shard, replica), ReplicaState.LIVE
        )

    def _placeable(self, shard: int) -> list[tuple[int, int]]:
        """``(pool, replica)`` candidates that may take new work.

        Live replicas first; when every serving replica is suspect
        (wedged) the suspects are used anyway — work placed there
        stalls until the wedge expires rather than degrading, because
        a straggler is a delay, not a loss.  Empty = dark shard.
        """
        pool = self.catalog.pool_index
        ids = self.catalog.replica_ids(shard)
        live = [
            (pool(shard, r), r)
            for r in ids
            if self.replica_state(shard, r) is ReplicaState.LIVE
        ]
        if live:
            return live
        return [
            (pool(shard, r), r)
            for r in ids
            if self.replica_state(shard, r) is ReplicaState.SUSPECT
        ]

    def _place(
        self, shard: int, width: Optional[int] = None
    ) -> Optional[tuple[int, int]]:
        """Pick the replica pool for one new shard leg, or None (dark).

        Least-loaded-live placement: among candidates, prefer pools
        with ``width`` free slots right now, then the lowest step bill
        (``Dispatcher.pool_work``), replica id as the deterministic
        tie-break.  With one replica per shard this degenerates to
        ``pool == shard`` — bit-for-bit the pre-replication placement.
        """
        candidates = self._placeable(shard)
        if not candidates:
            return None
        if width is not None:
            fitting = [
                c for c in candidates
                if width <= self.dispatcher.slots_free(c[0])
            ]
            if fitting:
                candidates = fitting
        return min(
            candidates,
            key=lambda c: (self.dispatcher.pool_work[c[0]], c[1]),
        )

    def _fits(self, races: dict) -> bool:
        """Whether every shard's race can co-schedule on some live
        replica pool right now."""
        return all(
            any(
                race.width <= self.dispatcher.slots_free(pool)
                for pool, _ in self._placeable(shard)
            )
            for shard, race in races.items()
        )

    def _dark_shards(self, races: dict, waves: list) -> list[int]:
        """Planned shards with no serving replica (degrade triggers)."""
        planned = set(races)
        for group in waves:
            planned.update(group)
        return sorted(
            s for s in planned if not self._placeable(s)
        )

    def _dispatch(
        self, ticket: Ticket, races: dict, id_maps: dict, waves: list
    ) -> bool:
        """Attach one ticket's (first-wave) fan-out to the pools.

        Every leg is placed on the least-loaded live replica of its
        shard at this instant; a shard gone dark between staging and
        dispatch degrades the ticket instead (False return).
        """
        tid = ticket.id
        placements: dict[int, tuple[int, int]] = {}
        for shard, race in sorted(races.items()):
            placed = self._place(shard, width=race.width)
            if placed is None:
                self._degrade(
                    tid, f"shard {shard} has no serving replica"
                )
                return False
            placements[shard] = placed
        for shard in sorted(races):
            pool, _ = placements[shard]
            self.dispatcher.admit((tid, shard), races[shard], pool=pool)
        self.tracer.end(tid, self._queue_spans.pop(tid, None), self.clock)
        self.tracer.event(
            tid, "dispatch", self.clock, fanout=len(races), waves=len(waves)
        )
        leg_spans = {}
        for shard in sorted(races):
            pool, replica = placements[shard]
            leg_spans[shard] = self.tracer.begin(
                tid, "leg", self.clock,
                shard=shard, replica=replica, pool=pool,
            )
        router = self._open[tid][1].router
        self._fanout[tid] = _FanoutState(
            pending=set(races),
            outcomes={},
            id_maps=id_maps,
            cancelled=[],
            replica_of={
                shard: replica
                for shard, (_, replica) in placements.items()
            },
            leg_spans=leg_spans,
            waves=list(waves),
            hedge_at=(
                self.clock + HEDGE_TICKS * self.dispatcher.quantum
                if waves
                else None
            ),
            epoch=(
                router.epoch
                if waves and router is not None
                else None
            ),
        )
        ticket.start_time = self.clock
        ticket.fanout = len(races)
        return True

    def _admit(self) -> None:
        """Move queued tickets into the dispatcher while slots allow.

        A ticket is gang-admitted: all its shard races attach
        in the same tick (each to its own pool), or the ticket waits at
        the head of the staging line — partial fan-outs would make a
        ticket's latency depend on unrelated pools' drain order.
        """
        while True:
            if self._staged:
                # staged tickets (admitted, waiting for width) go first
                tid = self._staged[0]
                ticket = self._open[tid][0]
                races, id_maps, waves = self._staged_races[tid]
                dark = self._dark_shards(races, waves)
                if dark:
                    # a shard this fan-out needs died while the ticket
                    # waited for width: refuse rather than block the
                    # staging line forever
                    self._staged.pop(0)
                    del self._staged_races[tid]
                    self._degrade(
                        tid,
                        f"shard(s) {dark} lost every replica",
                    )
                    continue
                if not self._fits(races):
                    return  # head-of-line: wait for the pools to drain
                self._staged.pop(0)
                del self._staged_races[tid]
            else:
                if all(
                    self.dispatcher.slots_free(p) <= 0
                    for p in range(self.dispatcher.pools)
                ):
                    return
                ticket = self.admission.next_ticket()
                if ticket is None:
                    return
                tid = ticket.id
                _, entry, options, _, variants, _ = self._open[tid]
                try:
                    races, id_maps, waves = self._build_races(
                        ticket, entry, options, variants
                    )
                except _ShardsDark as dark:
                    self._degrade(
                        tid,
                        f"shard(s) {dark.shards} lost every replica",
                    )
                    continue
                if not self._fits(races):
                    self._staged.append(tid)
                    self._staged_races[tid] = (races, id_maps, waves)
                    return
            self._dispatch(ticket, races, id_maps, waves)

    def _priority_order(self) -> list:
        """Fair-share order over active race tokens ((tid, shard)).

        Only dispatcher-attached races are ranked — queued tickets are
        ordered by admission, not here.  A ticket's shard races share
        its rank; the shard index is only the final tie-break.
        """
        ledger = self.admission.ledger

        def rank(token) -> tuple:
            tid, shard = token
            ticket = self._open[tid][0]
            return (
                ledger.virtual_time(ticket.tenant),
                ledger.registration_index(ticket.tenant),
                tid,
                shard,
            )

        return sorted(self.dispatcher.tokens(), key=rank)

    def _advance_wave(
        self, tid: int, state: _FanoutState, hedged: bool = False
    ) -> None:
        """Build + dispatch the next routed wave of a staged fan-out.

        Wave races are built lazily — this is the whole point of the
        staging: a shard whose wave never starts pays neither filter
        nor engine work.  The new races join their pools mid-flight;
        a full pool simply delays them a tick (the dispatcher bounds
        work per tick, not admissions), which deterministically
        backpressures new gang admissions until the wave drains.

        Lazy building reads the *live* assignment, so a rebalance
        slipping in mid-flight (a caller violating the quiesce
        contract) would silently race the wrong partition under the
        plan-time id maps — the epoch check turns that into a loud
        error instead.
        """
        group = state.waves.pop(0)
        ticket, entry, options, _key, variants, _ = self._open[tid]
        if (
            entry.router is not None
            and state.epoch is not None
            and entry.router.epoch != state.epoch
        ):
            raise RuntimeError(
                f"dataset {ticket.dataset!r} was reassigned while "
                f"ticket {tid} had waves in flight; rebalancing is "
                "only sound at quiesce points"
            )
        self.tracer.event(
            tid,
            "wave_hedge" if hedged else "wave_launch",
            self.clock,
            shards=sorted(group),
        )
        for shard in sorted(group):
            placed = self._place(shard)
            if placed is None:
                self._degrade(
                    tid, f"shard {shard} has no serving replica"
                )
                return
            pool, replica = placed
            race, id_map = self._build_shard_race(
                ticket, entry, options, variants, shard
            )
            self.dispatcher.admit((tid, shard), race, pool=pool)
            state.pending.add(shard)
            state.id_maps[shard] = id_map
            state.replica_of[shard] = replica
            state.leg_spans[shard] = self.tracer.begin(
                tid, "leg", self.clock,
                shard=shard, replica=replica, pool=pool,
            )
        ticket.fanout += len(group)
        state.hedge_at = (
            self.clock + HEDGE_TICKS * self.dispatcher.quantum
            if state.waves
            else None
        )

    def _on_shard_done(
        self, tid: int, shard: int, outcome: RaceOutcome,
        options: QueryOptions,
    ) -> Optional[RaceOutcome]:
        """Record one shard's outcome; merge when the fan-out resolves.

        First-true short-circuit: in decision-only mode a shard that
        found a match settles the query, so the siblings' remaining
        budget is cancelled (their partial work stays charged — it was
        really done) and any not-yet-started routed waves are dropped
        outright (they were never built, so they cost nothing).  A
        routed wave that completes without a match hands over to the
        next wave instead of merging.  Returns the merged outcome once
        no shard is pending or deferred, else None.
        """
        state = self._fanout[tid]
        state.pending.discard(shard)
        state.outcomes[shard] = outcome
        self.tracer.end(
            tid,
            state.leg_spans.pop(shard, None),
            self.clock,
            found=outcome.found,
            steps=outcome.steps,
        )
        if options.decision_only and outcome.found:
            if state.pending:
                for sibling in sorted(state.pending):
                    self.dispatcher.cancel((tid, sibling))
                    state.cancelled.append(sibling)
                    self.shard_cancelled.inc()
                    self.tracer.end(
                        tid,
                        state.leg_spans.pop(sibling, None),
                        self.clock,
                        cancelled=True,
                    )
                state.pending.clear()
            if state.waves:
                skipped = [s for group in state.waves for s in group]
                state.skipped.extend(skipped)
                state.waves.clear()
                self.waves_skipped.inc(len(skipped))
                ticket = self._open[tid][0]
                ticket.skipped = len(state.skipped)
                self.tracer.event(
                    tid, "waves_skipped", self.clock, shards=skipped
                )
        if state.pending:
            return None
        if state.waves:
            self._advance_wave(tid, state)
            return None
        del self._fanout[tid]
        self._account_waste(state)
        self.tracer.event(
            tid,
            "merge",
            self.clock,
            shards=sorted(state.outcomes),
            cancelled=sorted(state.cancelled),
            skipped=sorted(state.skipped),
        )
        return merge_shard_outcomes(state.outcomes, state.id_maps)

    def _account_waste(self, state: _FanoutState) -> None:
        """Bill non-contributing shard races to ``fanout_waste``.

        A shard race "contributed" iff it found a match; in a fan-out
        that raced at least two shards, every step billed to matchless
        (or cancelled) shard races is work the merged outcome never
        used — the quantity routing exists to shrink.  Single-race
        fan-outs (one shard, NFV, or routed down to one shard) have no
        siblings to waste.
        """
        raced = len(state.outcomes) + len(state.cancelled)
        if raced < 2:
            return
        for s, work in state.work.items():
            race = state.outcomes.get(s)
            if race is None or not race.found:
                self.fanout_waste.inc(work)

    # ------------------------------------------------------------------
    # replica health, fault injection, reroute, degradation
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
                replica = self._busiest_replica(event.shard)
            if replica is None:
                self.faults_noop.inc()
                return
            self.kill_replica(event.shard, replica)
        elif event.kind == "wedge":
            self.wedge_replica(event.shard, event.replica, event.ticks)
        elif event.kind == "fail_task":
            self._fail_one_task(event.shard)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {event.kind!r}")

    def _busiest_replica(self, shard: int) -> Optional[int]:
        """The serving replica with the most in-flight legs (then the
        highest step bill, then the highest id) — the deterministic
        resolution of a ``replica=-1`` kill, chosen so a seeded drill
        reliably hits a replica with work to lose."""
        ids = [
            r
            for r in self.catalog.replica_ids(shard)
            if self.replica_state(shard, r)
            in (ReplicaState.LIVE, ReplicaState.SUSPECT)
        ]
        if not ids:
            return None
        legs = {r: 0 for r in ids}
        for state in self._fanout.values():
            replica = state.replica_of.get(shard)
            if shard in state.pending and replica in legs:
                legs[replica] += 1
        pool = self.catalog.pool_index
        return max(
            ids,
            key=lambda r: (
                legs[r], self.dispatcher.pool_work[pool(shard, r)], r
            ),
        )

    def kill_replica(self, shard: int, replica: int) -> None:
        """Kill one replica permanently (fault drills call this).

        The replica's warm state is released, every in-flight leg it
        carried is rerouted to a surviving replica of the shard (same
        ticket, fresh race, full budget — determinism makes the re-run
        answer-identical), and new work never lands on it again; a
        shard whose only replica dies goes dark, and tickets needing it
        degrade with a ``retry_after``.  Killing a dead/retired replica
        is a no-op.
        """
        key = (shard, replica)
        if self.replica_states.get(key) in (
            ReplicaState.DEAD, ReplicaState.RETIRED,
        ):
            self.faults_noop.inc()
            return
        self.replica_states[key] = ReplicaState.DEAD
        self._suspect_until.pop(key, None)
        self.replicas_killed.inc()
        self.catalog.release_replica(shard, replica)
        for tid in sorted(self._fanout):
            state = self._fanout.get(tid)
            if state is None:
                continue  # degraded by an earlier reroute this loop
            if (
                shard in state.pending
                and state.replica_of.get(shard) == replica
            ):
                self.tracer.event(
                    tid, "fault_kill", self.clock,
                    shard=shard, replica=replica,
                )
                self._reroute_leg(tid, shard, lost=True)

    def wedge_replica(
        self, shard: int, replica: int, ticks: int
    ) -> None:
        """Freeze one replica's pool for ``ticks`` scheduler ticks.

        The straggler drill: the replica is SUSPECT while wedged (new
        placements avoid it when a live sibling exists), its races
        stall in place, and it returns to LIVE when the wedge expires.
        Wedging a dead/retired/unknown replica is a no-op.
        """
        key = (shard, replica)
        if (
            replica not in self.catalog.replica_ids(shard)
            or self.replica_states.get(key)
            in (ReplicaState.DEAD, ReplicaState.RETIRED)
        ):
            self.faults_noop.inc()
            return
        self.replica_states[key] = ReplicaState.SUSPECT
        self._suspect_until[key] = (
            self.clock + max(1, ticks) * self.dispatcher.quantum
        )
        self.replicas_wedged.inc()

    def _unwedge_expired(self) -> None:
        """Return SUSPECT replicas whose wedge ran out to LIVE."""
        for key, until in sorted(self._suspect_until.items()):
            if self.clock >= until:
                del self._suspect_until[key]
                if (
                    self.replica_states.get(key)
                    is ReplicaState.SUSPECT
                ):
                    del self.replica_states[key]

    def _frozen_pools(self) -> frozenset:
        """Pools that run nothing this tick (wedged replicas)."""
        if not self._suspect_until:
            return frozenset()
        pool = self.catalog.pool_index
        return frozenset(
            pool(s, r)
            for (s, r) in self._suspect_until
            if self.replica_states.get((s, r)) is ReplicaState.SUSPECT
        )

    def _fail_one_task(self, shard: int = -1) -> None:
        """Abort one in-flight leg (the worker-crash drill).

        The victim is the lowest active ``(tid, shard)`` token (of the
        given shard, or any) whose fan-out is still open; it restarts
        from scratch on the least-loaded live replica — possibly the
        same one, a crash is not a death sentence for the pool.
        """
        tokens = sorted(
            t
            for t in self.dispatcher.tokens()
            if isinstance(t, tuple)
            and t[0] in self._fanout
            and t[1] in self._fanout[t[0]].pending
            and (shard < 0 or t[1] == shard)
        )
        if not tokens:
            self.faults_noop.inc()
            return
        tid, s = tokens[0]
        self.tasks_failed.inc()
        self.tracer.event(tid, "fault_task", self.clock, shard=s)
        self._reroute_leg(tid, s, lost=False)

    def _reroute_leg(self, tid: int, shard: int, lost: bool) -> None:
        """Re-admit one fan-out leg after its replica died or its task
        failed.

        The recovery protocol: cancel the old race, rebuild a fresh
        one from the shard's surviving warm state, and admit it on the
        least-loaded serving replica under the same ticket token.  The
        rebuilt race runs the same deterministic engines with the
        ticket's full step budget, so a leg that completes after N
        retries answers bit-for-bit what it would have healthy — only
        its bill and latency carry the scar.  Retries are bounded per
        ticket; exhaustion (or a shard with no replica left) degrades
        the ticket instead of looping.
        """
        ticket, entry, options, _key, variants, _ = self._open[tid]
        state = self._fanout[tid]
        self.dispatcher.cancel((tid, shard))
        ticket.retries += 1
        self.retries.inc()
        self.tracer.end(
            tid,
            state.leg_spans.pop(shard, None),
            self.clock,
            outcome="lost" if lost else "failed",
        )
        self.tracer.event(
            tid, "retry", self.clock,
            shard=shard, lost=lost, attempt=ticket.retries,
        )
        if ticket.retries > self.max_retries:
            self._degrade(
                tid,
                f"retry budget exhausted ({self.max_retries}) "
                f"rerouting shard {shard}",
            )
            return
        old_replica = state.replica_of.get(shard)
        placed = self._place(shard)
        if placed is None:
            self._degrade(tid, f"shard {shard} has no serving replica")
            return
        pool, replica = placed
        race, id_map = self._build_shard_race(
            ticket, entry, options, variants, shard
        )
        self.dispatcher.admit((tid, shard), race, pool=pool)
        state.id_maps[shard] = id_map
        state.replica_of[shard] = replica
        state.leg_spans[shard] = self.tracer.begin(
            tid, "leg", self.clock,
            shard=shard, replica=replica, pool=pool,
            retry=ticket.retries,
        )
        if lost or replica != old_replica:
            self.rerouted.inc()

    def _degrade(self, tid: int, reason: str) -> None:
        """Refuse a ticket the topology can no longer answer fully.

        Partial answers are never returned: a fan-out missing a
        shard's contribution would silently drop matches, so the whole
        ticket (and its coalesced followers) resolves REJECTED with a
        ``degraded`` mark and a ``retry_after`` hint — the
        protocol-style backpressure answer — while the service keeps
        serving everything that doesn't need the dark shard.
        """
        ticket, _entry, _options, key, _variants, _ = self._open.pop(tid)
        state = self._fanout.pop(tid, None)
        if state is not None:
            for shard in sorted(state.pending):
                self.dispatcher.cancel((tid, shard))
                self.tracer.end(
                    tid,
                    state.leg_spans.pop(shard, None),
                    self.clock,
                    cancelled=True,
                )
            state.pending.clear()
            state.waves.clear()
        if tid in self._staged:
            self._staged.remove(tid)
            self._staged_races.pop(tid, None)
        if key is not None and self._inflight_keys.get(key) == tid:
            del self._inflight_keys[key]
        self.tracer.end(tid, self._queue_spans.pop(tid, None), self.clock)
        retry_after = self.clock + DEGRADED_RETRY_AFTER
        self._reject_degraded(ticket, reason, retry_after)
        self.tracer.event(tid, "degraded", self.clock, reason=reason)
        self.tracer.finish(
            tid,
            self.clock,
            state="rejected",
            degraded=True,
            reason=reason,
            retry_after=retry_after,
        )
        self.admission.on_complete(ticket)
        for follower in self._followers.pop(tid, []):
            self._reject_degraded(follower, reason, retry_after)
            self.admission.release_coalesced(follower)
            self.tracer.finish(
                follower.id,
                self.clock,
                state="rejected",
                degraded=True,
                coalesced=True,
                leader=tid,
                reason=reason,
                retry_after=retry_after,
            )

    def _reject_degraded(
        self, ticket: Ticket, reason: str, retry_after: int
    ) -> None:
        ticket.state = TicketState.REJECTED
        ticket.degraded = True
        ticket.reject_reason = f"degraded: {reason}"
        ticket.retry_after = retry_after
        ticket.finish_time = self.clock
        self.degraded.inc()
        self._degraded_now.append(ticket)

    def _drain_degraded(self) -> list[Ticket]:
        drained = self._degraded_now
        self._degraded_now = []
        return drained

    # ------------------------------------------------------------------
    # replica scaling (quiesce-point operations)
    # ------------------------------------------------------------------

    def live_replicas(self, shard: int) -> list[int]:
        """Serving replica ids of ``shard`` currently LIVE."""
        return [
            r
            for r in self.catalog.replica_ids(shard)
            if self.replica_state(shard, r) is ReplicaState.LIVE
        ]

    def add_replica(self, shard: int) -> int:
        """Scale one shard out by a replica (catalog replica and
        dispatcher pool grow in lockstep).  Returns the new replica id.

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
        store = self.catalog.store
        tid = span = None
        events_before = restores_before = rebuilds_before = 0
        if store is not None:
            tid = self._synthetic_trace_id
            self._synthetic_trace_id -= 1
            self.tracer.start(
                tid, self.clock, kind="add_replica", shard=shard
            )
            span = self.tracer.begin(tid, "store_boot", self.clock)
            events_before = len(store.events)
            restores_before = store.restores
            rebuilds_before = store.rebuilds
        replica = self.catalog.add_replica(shard)
        pool = self.dispatcher.add_pool()
        expected = self.catalog.pool_index(shard, replica)
        if pool != expected:  # pragma: no cover - lockstep invariant
            raise RuntimeError(
                f"pool {pool} != catalog pool {expected}; grow "
                "replicas through Service.add_replica only"
            )
        if store is not None:
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
        live = self.live_replicas(shard)
        if len(live) < 2:
            return None
        if replica is None:
            replica = max(live)
        elif replica not in live:
            return None
        key = (shard, replica)
        self.replica_states[key] = ReplicaState.RETIRED
        self._suspect_until.pop(key, None)
        self.catalog.release_replica(shard, replica)
        self.replicas_retired.inc()
        return replica

    # ------------------------------------------------------------------
    # dynamic collections: journaled mutations at quiesce points
    # ------------------------------------------------------------------

    def _checkpoint_seq(self) -> int:
        """Journal seq the attached store checkpoint covers (-1 = none)."""
        reader = self.catalog.store
        if reader is None or reader.manifest is None:
            return -1
        try:
            return int(reader.manifest.layout.get("journal_seq", -1))
        except (TypeError, ValueError):
            return -1

    def journal_lag(self) -> int:
        """Durable journal records not yet applied to the catalog.

        Zero on a healthy running service (append and apply happen in
        the same quiesce step); positive exactly between a cold boot
        and :meth:`replay_journal`, which is the operator signal the
        watch surfaces carry.
        """
        if self.journal is None:
            return 0
        return max(0, self.journal.tail_seq() - self._applied_seq)

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
        old collection state.  A full backlog rejects with a
        ``retry_after`` hint instead of growing without bound.
        """
        if op not in ("add_graph", "remove_graph"):
            raise ValueError(
                f"unknown mutation op {op!r}; "
                "known: add_graph, remove_graph"
            )
        if op == "add_graph" and graph is None:
            raise ValueError("add_graph requires a graph")
        if op == "remove_graph" and graph_id is None:
            raise ValueError("remove_graph requires a graph_id")
        mutation = MutationTicket(
            id=self._next_mutation_id,
            op=op,
            dataset=dataset,
            graph=graph,
            graph_id=graph_id,
            shard=shard,
            submit_time=self.clock,
        )
        self._next_mutation_id += 1
        if len(self._mutations) >= self.max_pending_mutations:
            self._reject_mutation(
                mutation,
                f"mutation backlog full "
                f"({self.max_pending_mutations} pending)",
                retry=True,
            )
            return mutation
        self._mutations.append(mutation)
        return mutation

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

    def _reject_mutation(
        self, mutation: MutationTicket, reason: str, retry: bool
    ) -> None:
        mutation.state = "rejected"
        mutation.reason = reason
        if retry:
            # same backpressure contract as degraded query tickets:
            # the condition is environmental (backlog, dark shard) and
            # a later re-submission may succeed
            mutation.retry_after = self.clock + DEGRADED_RETRY_AFTER
        self.mutations_rejected.inc()

    def _apply_mutations(self) -> None:
        """Apply every pending mutation (caller guarantees quiesce)."""
        while self._mutations:
            self._apply_mutation(self._mutations.popleft())

    def _plan_mutation(
        self, mutation: MutationTicket
    ) -> tuple[int, int]:
        """Resolve ``(graph_id, shard)`` for one mutation, pre-journal.

        The placement decision is made *before* the journal append so
        the record pins it — replay reproduces the exact layout
        whatever the load state at replay time.  Newcomers land on the
        coldest serving shard (the rebalancer's rule, same loads, same
        tie-break) unless the submitter pinned one; revives keep their
        slot's shard.  Everything the catalog would refuse is refused
        here, before anything is journaled.
        Raises KeyError for retryable conditions (dark shard),
        ValueError for permanent ones (bad op arguments).
        """
        try:
            entry = self.catalog.get(mutation.dataset)
        except KeyError as exc:
            raise ValueError(str(exc)) from exc
        if entry.kind != "ftv":
            raise ValueError(
                f"dataset {mutation.dataset!r} is not a mutable FTV "
                "collection"
            )
        if mutation.op == "remove_graph":
            gid = mutation.graph_id
            assert gid is not None
            if not 0 <= gid < len(entry.graphs):
                raise ValueError(
                    f"graph id {gid} out of range for "
                    f"{len(entry.graphs)} slots"
                )
            if gid in entry.tombstones:
                raise ValueError(f"graph id {gid} already removed")
            shard = entry.shard_of(gid)
            if not self.catalog.replica_ids(shard):
                raise KeyError(
                    f"shard {shard} has no serving replica"
                )
            return gid, shard
        num_shards = self.catalog.num_shards
        if mutation.shard is not None and not 0 <= mutation.shard < num_shards:
            raise ValueError(
                f"shard {mutation.shard} out of range (catalog has "
                f"{num_shards} shards)"
            )
        gid = (
            mutation.graph_id
            if mutation.graph_id is not None
            else len(entry.graphs)
        )
        if gid > len(entry.graphs):
            raise ValueError(
                f"graph id {gid} out of range for "
                f"{len(entry.graphs)} slots"
            )
        if gid < len(entry.graphs) and gid not in entry.tombstones:
            raise ValueError(
                f"graph id {gid} is live; remove it before re-adding"
            )
        if gid < len(entry.graphs):
            shard = entry.shard_of(gid)  # revive keeps its slot
        elif mutation.shard is not None:
            shard = mutation.shard
        else:
            loads = shard_loads(
                self.catalog, self.dispatcher.pool_work
            )
            shard = coldest_shard(self.catalog, loads)
        if not self.catalog.replica_ids(shard):
            raise KeyError(f"shard {shard} has no serving replica")
        return gid, shard

    def _apply_mutation(
        self, mutation: MutationTicket, replay: bool = False
    ) -> None:
        """Journal-then-apply one mutation; ack or reject it.

        Write-ahead discipline: the record is appended and fsynced
        *before* the catalog is touched, so the acknowledged state is
        always a prefix of the durable state.  A crash between append
        and apply leaves an unacknowledged-but-journaled record —
        replay applies it, which is exactly why replay must be
        idempotent.
        """
        try:
            gid, shard = self._plan_mutation(mutation)
        except KeyError as exc:
            self._reject_mutation(mutation, str(exc), retry=True)
            return
        except ValueError as exc:
            self._reject_mutation(mutation, str(exc), retry=False)
            return
        if self.journal is not None and not replay:
            from ..graphs.io import graph_to_json
            from ..store.journal import JournalRecord

            record = JournalRecord(
                seq=self._next_seq,
                epoch=self.journal.checkpoints,
                op=mutation.op,
                dataset=mutation.dataset,
                graph_id=gid,
                shard=shard,
                graph_json=(
                    graph_to_json(mutation.graph)
                    if mutation.op == "add_graph"
                    else None
                ),
            )
            fail_after, self.journal_fail_after = (
                self.journal_fail_after, None,
            )
            # a JournalCrash here propagates: the simulated process
            # died pre-ack, so neither catalog nor client saw anything
            self.journal.append(record, fail_after=fail_after)
            mutation.seq = record.seq
            self._next_seq += 1
        try:
            if mutation.op == "add_graph":
                assert mutation.graph is not None
                self.catalog.add_graph(
                    mutation.dataset, mutation.graph,
                    shard=shard, graph_id=gid,
                )
            else:
                self.catalog.remove_graph(mutation.dataset, gid)
        except KeyError as exc:
            self._reject_mutation(mutation, str(exc), retry=True)
            return
        if mutation.seq is not None:
            self._applied_seq = max(self._applied_seq, mutation.seq)
        mutation.graph_id = gid
        mutation.shard = shard
        mutation.state = "applied"
        mutation.apply_time = self.clock
        if replay:
            self.mutations_replayed.inc()
        else:
            self.mutations_applied.inc()

    def replay_journal(self):
        """Recover the journal and re-apply its surviving suffix.

        The cold-boot step: after the catalog restored the last store
        checkpoint, every journaled record newer than the checkpoint's
        ``journal_seq`` high-water is re-applied in order.  Recovery
        first truncates any torn tail (quarantining the evidence);
        replay skips records at or below the applied high-water, so
        calling this twice — or crashing mid-replay and replaying
        again — is identical to calling it once.  Returns the
        :class:`~repro.store.journal.RecoveryReport`.
        """
        if self.journal is None:
            raise ValueError("service has no journal to replay")
        from ..graphs.io import graph_from_json

        report = self.journal.recover()
        for record in report.records:
            if record.seq <= self._applied_seq:
                continue
            mutation = MutationTicket(
                id=self._next_mutation_id,
                op=record.op,
                dataset=record.dataset,
                graph=(
                    graph_from_json(record.graph_json)
                    if record.graph_json is not None
                    else None
                ),
                graph_id=record.graph_id,
                # -1: written before every collection was sharded —
                # no placement was pinned, so this catalog places it
                shard=(
                    record.shard if record.shard >= 0 else None
                ),
                submit_time=self.clock,
            )
            self._next_mutation_id += 1
            self._apply_mutation(mutation, replay=True)
            self._applied_seq = max(self._applied_seq, record.seq)
            self._next_seq = max(self._next_seq, record.seq + 1)
        return report

    def checkpoint_store(self, root) -> dict:
        """Persist the catalog and fold the journal into the manifest.

        A quiesce-point operation: the manifest records the applied
        journal high-water (``journal_seq``) *before* the journal is
        truncated, so a crash between the two leaves a stale journal
        whose every record the next boot provably skips.
        """
        if not self.idle:
            raise RuntimeError(
                "checkpoint_store is a quiesce-point operation; the "
                "service is not idle"
            )
        from ..store import StoreWriter

        writer = (
            root if isinstance(root, StoreWriter) else StoreWriter(root)
        )
        return writer.write_catalog(
            self.catalog,
            journal=self.journal,
            journal_seq=self._applied_seq,
        )

    def _mutation_report(self) -> dict:
        report = {
            "applied": self.mutations_applied.value,
            "replayed": self.mutations_replayed.value,
            "rejected": self.mutations_rejected.value,
            "pending": len(self._mutations),
            "epoch": self.catalog.mutation_epoch,
            "journal_lag": self.journal_lag(),
        }
        if self.journal is not None:
            report["journal"] = self.journal.as_metrics()
        return report

    def pump(self) -> list[Ticket]:
        """One scheduling tick; returns tickets completed this tick
        (coalesced followers resolve alongside their leader, and
        tickets degraded by a fault count as completed-with-refusal so
        closed loops see their slots free up)."""
        self._unwedge_expired()
        # mutations apply only at quiesce points: no ticket queued,
        # staged, or racing may observe the collection mid-change
        # (``_open`` covers leaders; coalesced followers only exist
        # while their leader is open)
        if self._mutations and not self._open:
            self._apply_mutations()
        # hedge overdue routed waves before admitting new work: a
        # first wave that has raced ``HEDGE_TICKS`` without settling
        # forfeits its head start and the remaining shards join in
        for tid in sorted(self._fanout):
            state = self._fanout.get(tid)
            if state is None:
                continue  # degraded earlier in this very loop
            if (
                state.waves
                and state.hedge_at is not None
                and self.clock >= state.hedge_at
            ):
                self._advance_wave(tid, state, hedged=True)
        self._admit()
        # scheduled faults fire after admission, before the tick: this
        # tick's legs are already placed, so a due kill genuinely hits
        # mid-flight work (and its reroutes run in this same tick)
        self._apply_due_faults()
        if self.dispatcher.active == 0:
            return self._drain_degraded()
        events = self.dispatcher.tick(
            self._priority_order(), frozen=self._frozen_pools()
        )
        # pass 1: bill every shard's work this tick while all tickets
        # are still open — a shard whose sibling settles the query this
        # same tick still really did its final round
        for token, work, _outcome in events:
            tid, shard = token
            ticket = self._open[tid][0]
            self.admission.charge(ticket.tenant, work)
            state = self._fanout.get(tid)
            if state is not None:
                state.work[shard] = state.work.get(shard, 0) + work
        completed: list[Ticket] = []
        for token, _work, outcome in events:
            if outcome is None:
                continue
            tid, shard = token
            if tid not in self._open:
                # a sibling shard's first-true decision already settled
                # this ticket earlier in the tick; drop the late outcome
                continue
            ticket, _, options, key, _, _ = self._open[tid]
            merged = self._on_shard_done(tid, shard, outcome, options)
            if merged is None:
                continue
            self._finalize(ticket, merged, key)
            del self._open[tid]
            completed.append(ticket)
            completed.extend(self._resolve_followers(tid, ticket.result))
        completed.extend(self._drain_degraded())
        return completed

    def _finalize(
        self,
        ticket: Ticket,
        race: RaceOutcome,
        key: Optional[tuple],
    ) -> None:
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
        self.completed_count.inc()
        self._observe_latency(ticket.latency or 0)
        if key is not None and self._inflight_keys.get(key) == ticket.id:
            del self._inflight_keys[key]
        if not race.killed:
            cached = CachedResult(
                found=result.found,
                num_embeddings=result.num_embeddings,
                steps=result.steps,
                winner=result.winner,
                per_variant_steps=per_variant,
                matching_ids=matching,
            )
            self.cache.store(key, cached)
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

    def _resolve_followers(
        self, leader_id: int, result: ServiceResult
    ) -> list[Ticket]:
        """Resolve coalesced followers with their leader's result.

        Followers report the leader's race verbatim (the result cache's
        historical-bill convention) at the leader's finish tick; their
        latency still runs from their own submit time.
        """
        followers = self._followers.pop(leader_id, [])
        resolved = replace(result, coalesced=True)
        for ticket in followers:
            ticket.state = TicketState.DONE
            ticket.finish_time = self.clock
            ticket.result = resolved
            self.admission.release_coalesced(ticket)
            self.completed_count.inc()
            self._observe_latency(ticket.latency or 0)
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
        return followers

    @property
    def idle(self) -> bool:
        """True when no queued, staged, or running work remains (and
        no degraded ticket is still waiting to be handed back, and no
        mutation is still waiting for its quiesce point)."""
        return (
            self.dispatcher.active == 0
            and self.admission.queued() == 0
            and not self._staged
            and not self._degraded_now
            and not self._mutations
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
    # stats (a read of the metrics registry)
    # ------------------------------------------------------------------

    #: the stats() dict, key for key: every entry is the registry
    #: metric ``service.<key>`` (keys, order and the flat counters
    #: behind each composite view are pinned by ``tests/test_obs.py``)
    _STATS_KEYS = (
        "clock_steps",
        "ticks",
        "work_steps",
        "completed",
        "active",
        "shards",
        "shard_cancelled",
        "per_shard_work",
        "per_pool_work",
        "replicas",
        "faults",
        "fanout_waste",
        "routing",
        "latency_steps",
        "admission",
        "result_cache",
        "prepare_cache",
        "memory",
    )

    def _register_stats_metrics(self) -> None:
        """Wire the composite stats views into the registry.

        Counters register themselves at construction; everything else
        in :attr:`_STATS_KEYS` is a gauge over state the components
        already maintain, so ``stats()`` can be a pure registry read
        without any value ever being computed twice.
        """
        g = self.metrics.gauge
        g("service.clock_steps", lambda: self.clock)
        self.metrics.register("service.ticks", self.dispatcher.ticks)
        self.metrics.register(
            "service.work_steps", self.dispatcher.work_steps
        )
        g("service.active", lambda: self.dispatcher.active)
        g("service.shards", lambda: self.catalog.num_shards)
        g("service.per_shard_work", self._per_shard_work)
        g("service.per_pool_work", lambda: list(self.dispatcher.pool_work))
        g("service.replicas", self._replica_report)
        g("service.faults", self._fault_report)
        g("service.routing", self._routing_report)
        g("service.latency_steps", self._latency_report)
        g("service.admission", lambda: self.admission.stats())
        g("service.result_cache", lambda: self.cache.as_metrics())
        g("service.prepare_cache", _prepare_cache_metrics)
        g("service.memory", lambda: self.catalog.memory_report())
        # registry-only views (not part of the stats() contract)
        g("service.graph_bills", lambda: len(self.graph_bills))
        g("routing.tables", self._routing_tables)
        g("trace.buffer", self.tracer.as_metrics)
        g("mutations.pending", lambda: len(self._mutations))
        g("journal.lag", self.journal_lag)
        g("service.mutations", self._mutation_report)

    def _per_shard_work(self) -> list:
        # per-shard semantics survive replication: a shard's work is
        # the sum over every pool that ever served it, dead replicas'
        # history included
        return [
            sum(
                self.dispatcher.pool_work[p]
                for p in self.catalog.shard_pools(s)
                if p < self.dispatcher.pools
            )
            for s in range(self.catalog.num_shards)
        ]

    def _replica_report(self) -> dict:
        num_shards = self.catalog.num_shards
        return {
            "counts": [
                len(self.catalog.replica_ids(s))
                for s in range(num_shards)
            ],
            "live": [
                len(self.live_replicas(s)) for s in range(num_shards)
            ],
            "states": {
                f"{s}/{r}": state.value
                for (s, r), state in sorted(self.replica_states.items())
            },
            "killed": self.replicas_killed.value,
            "wedged": self.replicas_wedged.value,
            "retired": self.replicas_retired.value,
        }

    def _fault_report(self) -> dict:
        return {
            "injected": (
                len(self.faults.applied) if self.faults is not None else 0
            ),
            "retries": self.retries.value,
            "rerouted": self.rerouted.value,
            "degraded": self.degraded.value,
            "tasks_failed": self.tasks_failed.value,
            "noop": self.faults_noop.value,
        }

    def _routing_report(self) -> dict:
        return {
            "enabled": self.routing,
            "routed": self.routed_queries.value,
            "shards_pruned": self.shards_pruned.value,
            "waves_skipped": self.waves_skipped.value,
            "shard_cancelled": self.shard_cancelled.value,
        }

    def _latency_report(self) -> Optional[dict]:
        from ..metrics import summarize_latencies

        if not self._latencies:
            return None
        return summarize_latencies(list(self._latencies)).as_dict()

    def _routing_tables(self) -> dict:
        """Per-dataset router sketch metrics (routable entries only)."""
        out = {}
        for name in self.catalog.datasets():
            router = self.catalog.get(name).router
            if router is not None:
                out[name] = router.as_metrics()
        return out

    def _observe_latency(self, steps: int) -> None:
        self._latencies.append(steps)
        self._latency_hist.observe(steps)

    def stats(self) -> dict:
        """One JSON-ready snapshot of every serving metric.

        Assembled entirely from the metrics registry — each key is the
        metric registered as ``service.<key>``; use
        ``self.metrics.snapshot()`` for the full flat namespace
        (components, histogram, trace-buffer occupancy) beyond this
        stable contract.
        """
        value = self.metrics.value
        return {key: value(f"service.{key}") for key in self._STATS_KEYS}

    def store_metrics(self) -> dict:
        """Counters of the attached artifact store reader ({} when the
        service runs without persistence)."""
        store = self.catalog.store
        return store.as_metrics() if store is not None else {}

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------

    def trace(self, ticket_id: int):
        """The recorded span tree for one ticket (None if never traced
        or already evicted from the ring buffer)."""
        return self.tracer.get(ticket_id)

    def export_traces(self, dest) -> int:
        """Dump every buffered trace as JSONL (path or file object);
        returns the number of traces written."""
        return self.tracer.export_jsonl(dest)
