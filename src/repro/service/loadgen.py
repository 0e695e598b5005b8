"""Closed-loop load generation for the service.

:func:`run_closed_loop` — each tenant keeps ``concurrency`` queries in
flight, submitting its next query the tick its previous one completes:
the classic closed-loop generator whose throughput is capacity, not
arrival-rate, limited.  It is the one loop there is: the rebalance
cadence, the chaos plan, mid-load regrow and a journaled update stream
woven through the queries (:func:`plan_update_stream`) are all
arguments of it.  ``repro serve`` and the scenario runner replay their
workloads through this driver
(:meth:`repro.service.spec.ServiceSpec.drive`).

It returns a :class:`LoadReport` whose :meth:`LoadReport.as_json` is
the JSON-ready summary: throughput (queries per million simulated
steps and per wall second) plus p50/p95/p99 simulated-step latency
and cache/admission counters.

Determinism contract: everything except ``wall_seconds`` is a pure
function of (service configuration, streams) — the report carries two
digests to prove it.  ``digest`` (:func:`results_digest`) covers full
results including bills and latencies and must be identical across
runs *of the same configuration*; ``answers`` (:func:`answers_digest`)
covers only decision answers and must additionally be identical across
shard layouts of the same workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..graphs import LabeledGraph
from ..workload import MixedQuery
from .admission import Ticket, TicketState
from .faults import ReplicaState
from .planner import SERVED_FTV_METHOD, SERVED_PATH_LENGTH
from .service import (
    QueryOptions,
    Service,
    answers_digest,
    decisions_digest,
    results_digest,
)

__all__ = [
    "LoadReport",
    "MutationOp",
    "collection_digest",
    "oracle_digest",
    "plan_update_stream",
    "run_closed_loop",
]


@dataclass
class LoadReport:
    """Everything one load run measured."""

    tickets: list[Ticket]
    virtual_steps: int
    wall_seconds: float
    digest: str
    service_stats: dict
    #: digest over decision answers only (sharding-invariant — equal
    #: for runs of the same workload over any number of shards)
    answers: str = ""
    #: digest over existence answers only (additionally invariant
    #: under shard routing for decision_only workloads, where the
    #: witness sets behind ``answers`` legitimately differ)
    decisions: str = ""
    #: rebalancer summary when a Rebalancer rode along (else empty)
    rebalance: dict = field(default_factory=dict)
    #: chaos summary when a FaultInjector rode along (else empty)
    chaos: dict = field(default_factory=dict)
    #: artifact-store summary when the service served from a
    #: persisted store and/or the regrow drill ran (else empty):
    #: reader counters plus one row per replica regrown mid-load
    store: dict = field(default_factory=dict)
    #: dynamic-collection summary when an update stream rode along
    #: (else empty): mutation counters, journal state, and the
    #: per-quiesce-point oracle verdicts
    mutations: dict = field(default_factory=dict)

    @property
    def completed(self) -> list[Ticket]:
        """Tickets that produced results (rejections excluded)."""
        return [
            t for t in self.tickets if t.state is TicketState.DONE
        ]

    def as_json(self) -> dict:
        """The JSON-ready summary of the run.

        Measured sections come straight from the service's metrics
        registry snapshot (``service_stats``) — including
        ``latency_steps``, which this method used to re-derive by hand
        from the ticket list.  The registry observes exactly one
        latency per DONE ticket (cache hits at 0), so the two
        derivations are value-identical; the snapshot is authoritative
        because it is what ``GET /stats`` and ``/watch`` serve.
        """
        done = self.completed
        per_tenant: dict[str, dict] = {}
        for t in self.tickets:
            row = per_tenant.setdefault(
                t.tenant,
                {"submitted": 0, "completed": 0, "cache_hits": 0,
                 "rejected": 0},
            )
            row["submitted"] += 1
            if t.state is TicketState.DONE:
                row["completed"] += 1
                row["cache_hits"] += int(t.cache_hit)
            elif t.state is TicketState.REJECTED:
                row["rejected"] += 1
        msteps = self.virtual_steps / 1e6 if self.virtual_steps else 0.0
        killed = sum(1 for t in done if t.result.killed)
        return {
            "digest": self.digest,
            "answers_digest": self.answers,
            "decisions_digest": self.decisions,
            #: budget-killed queries; their answers are execution-
            #: dependent, so answers_digest is only layout-invariant
            #: when this is 0 in both runs being compared
            "killed": killed,
            "throughput": {
                "queries": len(done),
                "virtual_steps": self.virtual_steps,
                "queries_per_mstep": (
                    len(done) / msteps if msteps else float(len(done))
                ),
                "wall_seconds": self.wall_seconds,
                "queries_per_second": (
                    len(done) / self.wall_seconds
                    if self.wall_seconds > 0
                    else 0.0
                ),
            },
            "latency_steps": self.service_stats["latency_steps"],
            "tenants": per_tenant,
            "result_cache": self.service_stats["result_cache"],
            "prepare_cache": self.service_stats["prepare_cache"],
            "admission": self.service_stats["admission"],
            #: per-shard (pool) step bills — the skew signal
            "per_shard_work": self.service_stats["per_shard_work"],
            #: steps billed to shard races that contributed nothing to
            #: their merged outcome (what routing exists to shrink)
            "fanout_waste": self.service_stats["fanout_waste"],
            "routing": self.service_stats["routing"],
            "rebalance": self.rebalance,
            "chaos": self.chaos,
            "store": self.store,
            "mutations": self.mutations,
        }


def _chaos_summary(service: Service, tickets: list[Ticket]) -> dict:
    """The ``chaos`` section of the report payload: the service's
    fault counters, and ``lost``, the tickets that never reached a
    terminal state — the zero-lost-tickets invariant of the failure
    model."""
    stats = service.stats().get("faults", {})
    return {
        "enabled": True,
        "injected": stats.get("injected", 0),
        "retries": stats.get("retries", 0),
        "rerouted": stats.get("rerouted", 0),
        "degraded": stats.get("degraded", 0),
        "tasks_failed": stats.get("tasks_failed", 0),
        "lost": sum(1 for t in tickets if not t.done),
    }


def _store_summary(service: Service, regrown) -> dict:
    """The ``store`` section of the report payload (empty without a
    persisted store and without regrow activity)."""
    metrics = service.store_metrics()
    if not metrics and not regrown:
        return {}
    return {
        "enabled": bool(metrics),
        "metrics": metrics,
        "regrown": list(regrown or []),
    }


def _report(
    service: Service,
    tickets: list[Ticket],
    wall_seconds: float,
    rebalancer=None,
    faults=None,
    regrown=None,
) -> LoadReport:
    done = [t for t in tickets if t.state is TicketState.DONE]
    return LoadReport(
        tickets=tickets,
        virtual_steps=service.clock,
        wall_seconds=wall_seconds,
        digest=results_digest(done),
        service_stats=service.stats(),
        answers=answers_digest(done),
        decisions=decisions_digest(done),
        rebalance=(
            rebalancer.summary() if rebalancer is not None else {}
        ),
        chaos=(
            _chaos_summary(service, tickets)
            if faults is not None
            else {}
        ),
        store=_store_summary(service, regrown),
    )


# ----------------------------------------------------------------------
# dynamic collections: update streams + the rebuild-from-scratch oracle
# ----------------------------------------------------------------------

@dataclass
class MutationOp:
    """One planned collection mutation in an update stream."""

    op: str
    graph_id: Optional[int] = None
    graph: Optional[LabeledGraph] = None


def plan_update_stream(
    graphs: list[LabeledGraph],
    count: int,
    seed: int = 0,
    add_fraction: float = 0.6,
) -> list[MutationOp]:
    """Expand ``seed`` into a deterministic add/remove plan.

    The plan simulates the collection's live/tombstoned state so every
    remove targets a live id, roughly ``add_fraction`` of ops are adds,
    a fraction of adds *revive* a previously removed slot (the
    add→remove→re-add chain the replay drills care about), and every
    fourth add carries a label the collection has never seen (the
    interner-extension hazard).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0.0 <= add_fraction <= 1.0:
        raise ValueError("add_fraction must be within [0, 1]")
    rng = random.Random(seed)
    pool = sorted({l for g in graphs for l in g.labels}, key=repr)
    if not pool:
        raise ValueError("collection has no labels to draw from")
    if all(isinstance(lab, int) for lab in pool):
        base = max(pool) + 1

        def novel(k: int):
            return base + k
    else:
        def novel(k: int):
            return f"nv{k}"

    live = set(range(len(graphs)))
    tombs: set[int] = set()
    next_id = len(graphs)
    adds = 0
    ops: list[MutationOp] = []
    for i in range(count):
        if len(live) > 2 and rng.random() >= add_fraction:
            gid = sorted(live)[rng.randrange(len(live))]
            live.discard(gid)
            tombs.add(gid)
            ops.append(MutationOp("remove_graph", graph_id=gid))
            continue
        if tombs and rng.random() < 0.35:
            gid = sorted(tombs)[rng.randrange(len(tombs))]
            tombs.discard(gid)
        else:
            gid = next_id
            next_id += 1
        live.add(gid)
        n = rng.randint(5, 9)
        labels = [rng.choice(pool) for _ in range(n)]
        adds += 1
        if adds % 4 == 0:
            labels[rng.randrange(n)] = novel(adds)
        from ..graphs.generators import gnm_graph

        graph = gnm_graph(
            n, n + rng.randint(1, n), labels, rng, name=f"upd-{i}"
        )
        ops.append(MutationOp("add_graph", graph_id=gid, graph=graph))
    return ops


def _state_digest(live_rows: list, answers: list) -> str:
    doc = {"live": live_rows, "answers": answers}
    raw = json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def _live_rows(entry) -> list:
    return [
        [gid, entry.graphs[gid].order, entry.graphs[gid].size]
        for gid in entry.live_graph_ids()
    ]


def collection_digest(
    service: Service, dataset: str, probes: list[LabeledGraph]
) -> str:
    """Digest of the *served* collection state: live ids/shapes plus
    each probe's verified decision answer in global graph ids.

    Layout-invariant by construction — FTV filtering is a per-graph
    predicate and the digest covers verified answers (not candidate
    sets, which legitimately differ between a from-scratch interner
    and an incrementally extended one), so one-shard, many-shard,
    routed and replicated layouts of the same collection state all
    hash identically.
    """
    entry = service.catalog.get(dataset)
    answers = []
    subs = [
        (shard, service.catalog.shard_entry(dataset, shard))
        for shard in entry.involved_shards()
    ]
    for probe in probes:
        ids: set[int] = set()
        for shard, sub in subs:
            result = sub.ftv_index.query(probe)
            ids.update(
                entry.assignment[shard][local]
                for local in result.matching_ids
            )
        answers.append(sorted(ids))
    return _state_digest(_live_rows(entry), answers)


def oracle_digest(
    service: Service, dataset: str, probes: list[LabeledGraph]
) -> str:
    """Digest of the rebuild-from-scratch oracle for the same state.

    A fresh served index is built over exactly the live graphs
    (ascending global id) and every probe is answered against it — no
    journal, no incremental maintenance, no sharding.  Equality with
    :func:`collection_digest` at a quiesce point is the correctness
    claim of the whole mutation path.
    """
    from ..indexing import FTV_INDEX_CLASSES

    entry = service.catalog.get(dataset)
    live = entry.live_graph_ids()
    index = FTV_INDEX_CLASSES[SERVED_FTV_METHOD](
        [entry.graphs[gid] for gid in live],
        max_path_length=SERVED_PATH_LENGTH,
    )
    answers = [
        sorted(live[local] for local in index.query(p).matching_ids)
        for p in probes
    ]
    return _state_digest(_live_rows(entry), answers)


def _oracle_check(
    service: Service, dataset: str, probes: list[LabeledGraph]
) -> dict:
    served = collection_digest(service, dataset, probes)
    oracle = oracle_digest(service, dataset, probes)
    return {
        "clock": service.clock,
        "digest": served,
        "oracle": oracle,
        "ok": served == oracle,
    }


def _default_probes(
    service: Service, dataset: str, ops, seed: int
) -> list[LabeledGraph]:
    """Seeded probes over the initial live graphs plus the planned
    newcomers, so both are probed positively."""
    from ..workload import generate_workload

    entry = service.catalog.get(dataset)
    base = [entry.graphs[g] for g in entry.live_graph_ids()]
    added = [op.graph for op in ops if op.graph is not None]
    probes = [q.graph for q in generate_workload(base, 6, 3, seed=seed)]
    if added:
        probes += [
            q.graph for q in generate_workload(added, 4, 3, seed=seed + 1)
        ]
    return probes


def run_closed_loop(
    service: Service,
    dataset: str,
    streams: dict[str, list[MixedQuery]],
    options: QueryOptions | None = None,
    concurrency: int = 1,
    rebalancer=None,
    rebalance_every: int = 0,
    faults=None,
    regrow: bool = False,
    mutations: Optional[list[MutationOp]] = None,
    mutate_every: int = 8,
    batch: int = 2,
    probe_seed: int = 0,
    verify_oracle: bool = True,
) -> LoadReport:
    """Closed-loop load: each tenant keeps ``concurrency`` in flight.

    A tenant's next query is submitted the tick its oldest outstanding
    one completes — so measured throughput reflects service capacity,
    the number the ROADMAP's "heavy traffic" goal cares about.

    The loop stops at **quiesce points** — the service fully idle — for
    the two things that are only sound there, and a
    :class:`~repro.service.rebalance.Rebalancer`, when given, gets its
    chance at every one of them:

    * with ``rebalance_every > 0``, every ``rebalance_every``
      completions the generator stops feeding and lets the in-flight
      queries drain;
    * with a ``mutations`` plan (:func:`plan_update_stream`), every
      ``mutate_every`` completions — or once the streams run dry — the
      next ``batch`` mutations are due.  A due batch does not withhold
      submissions; it lands at the first point the loop is idle of its
      own accord (or was drained by the rebalance cadence), is
      submitted there, and the following pump applies it (journal-ack
      first).  With ``verify_oracle`` the served collection is then
      digest-compared against the rebuild-from-scratch oracle, and
      once more after the loop, so *every* quiesce point that changed
      the collection is verified.  The probes are a seeded
      (``probe_seed``) workload drawn from the initial live graphs plus
      the planned newcomers, so both pre-existing and added graphs are
      probed positively.  The report then carries a ``mutations`` section.

    With a :class:`~repro.service.faults.FaultInjector`, its events are
    installed on the service before the first submission and fire on
    the virtual clock as the loop pumps — chaos mode.  The report then
    carries a ``chaos`` section (injection counters and the zero-lost-
    tickets check).

    With ``regrow=True`` the loop heals
    permanent losses as they happen: whenever a shard has more DEAD
    replicas than it has regrown so far, :meth:`Service.add_replica`
    scales it back out *mid-load*.  A newcomer beside a live sibling
    serves the shard's warm partition as it stands; one that brings a
    dark shard back re-warms it — from disk when a store is attached
    (the elastic O(read) path the persistence layer exists for).  Each
    regrow is recorded in the report's ``store`` section with the
    virtual clock it happened at and whether it read the store.

    Deterministic, like everything else on the virtual clock.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if faults is not None:
        service.install_faults(faults)
    ops = deque(mutations or ())
    verify_oracle = verify_oracle and bool(ops)
    if verify_oracle:
        probes = _default_probes(service, dataset, ops, probe_seed)
    pending = {t: list(s) for t, s in streams.items()}
    outstanding = {t: 0 for t in streams}
    tickets: list[Ticket] = []
    mutation_tickets: list = []
    checks: list[dict] = []
    regrown: list[dict] = []
    healed: dict[int, int] = {}
    start = time.perf_counter()

    def regrow_dead() -> None:
        # one replacement per permanent loss, placed the same tick the
        # loop observes the death — deterministic on the virtual clock
        reader = service.catalog.store
        for shard in range(service.catalog.num_shards):
            dead = sum(
                1
                for (s, _r), state in service.replica_set.states.items()
                if s == shard and state is ReplicaState.DEAD
            )
            while healed.get(shard, 0) < dead:
                before = reader.restores if reader is not None else 0
                replica = service.add_replica(shard)
                healed[shard] = healed.get(shard, 0) + 1
                regrown.append(
                    {
                        "shard": shard,
                        "replica": replica,
                        "clock": service.clock,
                        "from_store": bool(
                            reader is not None
                            and reader.restores > before
                        ),
                    }
                )

    def feed() -> None:
        # tenant order is sorted for determinism
        for tenant in sorted(pending):
            while pending[tenant] and outstanding[tenant] < concurrency:
                mq = pending[tenant].pop(0)
                ticket = service.submit(
                    dataset,
                    mq.query.graph,
                    tenant=tenant,
                    options=options,
                )
                tickets.append(ticket)
                if ticket.done:
                    continue  # cache hit or rejection: slot still free
                outstanding[tenant] += 1

    def apply_batch() -> None:
        for _ in range(min(batch, len(ops))):
            op = ops.popleft()
            mutation_tickets.append(
                service.submit_mutation(
                    dataset, op.op, graph=op.graph, graph_id=op.graph_id
                )
            )
        service.pump()  # idle, so this pump applies them
        if verify_oracle:
            checks.append(_oracle_check(service, dataset, probes))

    cadence = rebalancer is not None and rebalance_every > 0
    since_rebalance = since_batch = 0
    feed()
    while True:
        finished = service.pump()
        for t in finished:
            outstanding[t.tenant] -= 1
        if regrow:
            regrow_dead()
        since_rebalance += len(finished)
        since_batch += len(finished)
        rebalance_due = cadence and since_rebalance >= rebalance_every
        batch_due = bool(ops) and (
            since_batch >= mutate_every or not any(pending.values())
        )
        if (rebalance_due or batch_due) and service.idle:
            if batch_due:
                apply_batch()
                since_batch = 0
            if rebalancer is not None:
                rebalancer.maybe_rebalance()
                since_rebalance = 0
            feed()
        elif finished and not rebalance_due:
            # only the rebalance cadence withholds new submissions
            # until in-flight work drains
            feed()
        if service.idle and not any(pending.values()) and not ops:
            break
    if verify_oracle:
        checks.append(_oracle_check(service, dataset, probes))
    wall = time.perf_counter() - start
    report = _report(
        service, tickets, wall, rebalancer, faults,
        regrown=regrown if regrow else None,
    )
    if mutations:
        report.mutations = {
            "enabled": True,
            "planned": len(mutations),
            "applied": sum(1 for m in mutation_tickets if m.applied),
            "rejected": sum(1 for m in mutation_tickets if m.rejected),
            "service": service.mutations.report(),
            "oracle": {
                "verified": verify_oracle,
                "checks": len(checks),
                "mismatches": sum(1 for c in checks if not c["ok"]),
                "points": checks,
            },
        }
    return report
