"""The five workloads: inputs, set-up, and the timed laps.

``ftv-sharded``    filter -> VF2 verify x rewritings race -> fan-out/merge
``nfv-race``       the paper's Psi-NFV race itself (GQL,SPA x Orig,DND)
``door-hot``       mostly cache hits over a real loopback socket
``update-stream``  reads with full-size add/remove mutations woven in
``cold-boot``      boot cycles; the matchers answer a short probe per boot

A run is a row of laps (``Harness.lap``): each builds the workload's
serving configuration from nothing and serves the workload's whole
stream on it, so every lap does identical work and the run can report
the lap the host disturbed least.

Inputs are made before any timed section.  ``--seed`` draws where in
its cycle each tenant's stream starts (hence which tenants' queries
meet in the pool and what the cold cache sees first), the first query
of every boot, a check population that every run answers after its
last lap and audits in full, and the audit's sample.  The *timed* query
populations, the order within a stream, the add/remove plan and the
newcomer graphs are pinned (``POPULATION_SEED``), each for a measured
reason: the top 1 % of a stream carries a third of its matcher steps,
so ten populations of one shape spread 14 % in throughput (IQR/median)
and ten shuffles of one population still 3-10 % (what a 512-entry
cache evicts depends on order); ten draws of the newcomers spread
``update-stream``'s matcher steps 21 %.  No run this benchmark can
afford brings those under the 0.10 bound, and the stragglers are what
the paper is about, so they are not trimmed away either.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

from repro.datasets import ppi_like
from repro.graphs import LabeledGraph
from repro.harness import NFV_DATASETS, build_ftv_graphs, build_nfv_graph
from repro.obs.client import ObsClient
from repro.obs.server import BackgroundFrontDoor
from repro.service import (
    AdmissionController,
    QueryOptions,
    Service,
    TenantPolicy,
    TicketState,
)
from repro.service.loadgen import plan_update_stream
from repro.store import StoreWriter
from repro.workload import (
    default_tenant_mixes,
    generate_tenant_stream,
    generate_workload,
)

from .spans import SpanLog, timed

__all__ = [
    "RUN_SECONDS", "SPECS", "Spec", "Sizes", "Inputs", "Window",
    "Harness", "make_inputs", "newcomer", "build_service", "answer",
]

#: the ``run_seconds`` of BENCHMARK.json: how long a run keeps starting
#: laps.  A lap is one fresh build of the workload's serving
#: configuration plus one pass over its (fixed) stream, so every lap
#: does identical work and a run holds as many as ``--seconds`` allows
RUN_SECONDS = 27

#: laps a run makes however slow the host; lap 0 is the process-cold
#: warm-up, reported apart and kept out of every estimate
MIN_LAPS = 3

#: seeds the pinned query populations (EDBT 2017 opened on this date)
POPULATION_SEED = 20170321

#: queries drawn from ``--seed`` that every run answers after its
#: window, untimed, and audits in full
CHECK_QUERIES = 36
#: their step budget, as a multiple of the workload's: a fresh draw may
#: be a worse straggler than any pinned query and must not be killed
CHECK_BUDGET_FACTOR = 10

#: queries of the workload's own stream each query-level layer replay
#: uses
REPLAY_SAMPLE = 120


@dataclass(frozen=True)
class Sizes:
    #: queries, and mutations woven into them, per lap
    queries: int
    mutations: int
    scale: str
    #: laps are started until this many seconds have gone by ...
    seconds: float
    #: ... and at least this many were made
    min_laps: int = MIN_LAPS
    checks: int = CHECK_QUERIES
    #: stream queries each layer replay samples
    replay_sample: int = REPLAY_SAMPLE


@dataclass(frozen=True)
class Spec:
    """One workload's shape: what one lap serves (and at ``--smoke``)."""

    name: str
    why: str
    dataset: str
    shards: int
    tenants: int
    concurrency: int
    #: queries per lap
    queries: int
    repeat_fraction: float
    loop: str
    smoke_queries: int
    sizes: tuple = (4, 8, 12)
    algorithms: tuple = ("GQL", "SPA")
    rewritings: tuple = ("Orig", "DND")
    budget: int = 200_000
    workers: int = 4
    #: door-hot: queries arrive over a bound front door
    door: bool = False
    #: update-stream: mutations woven into a lap at even spacing; the
    #: store is checkpointed after two thirds of them
    mutations: int = 0
    smoke_mutations: int = 0
    #: cold-boot: a lap is a boot cycle, ``queries`` probes per boot
    cycles: bool = False

    @property
    def nfv(self) -> bool:
        return self.dataset in NFV_DATASETS

    def options(self) -> QueryOptions:
        return QueryOptions(
            algorithms=self.algorithms, rewritings=self.rewritings
        )

    def sized(self, seconds: float, smoke: bool) -> Sizes:
        if smoke:
            # the warm-up lap and one that counts, whatever the clock says
            return Sizes(
                self.smoke_queries, self.smoke_mutations, "tiny",
                seconds=0.0, min_laps=2, checks=6, replay_sample=8,
            )
        return Sizes(self.queries, self.mutations, "default", seconds)


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="ftv-sharded",
            why="filter, VF2 verify and the fan-out/merge do the work; "
                "store, journal and socket do none",
            dataset="ppi", shards=2, tenants=2, concurrency=6,
            queries=440, repeat_fraction=0.35,
            loop="closed, in-process, 2 tenants x 6 in flight",
            smoke_queries=24,
        ),
        Spec(
            name="nfv-race",
            why="the paper's 4-wide GQL,SPA x Orig,DND race with no "
                "filter, VF2, fan-out or cache hit: a VF2 or filter "
                "change must not move it",
            dataset="yeast", shards=1, tenants=2, concurrency=2,
            queries=320, repeat_fraction=0.0,
            loop="closed, in-process, 2 tenants x 2 in flight",
            smoke_queries=16,
        ),
        Spec(
            name="door-hot",
            why="92 % isomorphic repeats over a loopback socket, the "
                "distinct queries fit the result cache: HTTP, JSON, "
                "canon, cache and admission dominate, matchers do little",
            dataset="ppi", shards=2, tenants=1, concurrency=1,
            # at 0.8 matchers take 60 % of the time over the socket
            queries=1500, repeat_fraction=0.92, door=True,
            loop="closed, one sequential HTTP client",
            smoke_queries=24,
        ),
        Spec(
            name="update-stream",
            why="full-size graphs added and removed beside reads, so "
                "incremental census, postings, sketch and memory "
                "accounting run per mutation behind a journal",
            dataset="ppi", shards=2, tenants=2, concurrency=2,
            queries=150, repeat_fraction=0.35, mutations=6,
            loop="closed, in-process, 2 tenants x 2 in flight, "
                 "mutations at even spacing",
            smoke_queries=20, smoke_mutations=3,
        ),
        Spec(
            name="cold-boot",
            why="set-up is the work: dataset build, kernel freeze, "
                "census, trie seal, sketch, accounting, codec and blob "
                "I/O; the matchers answer a short probe per boot",
            dataset="ppi", shards=2, tenants=1, concurrency=1,
            queries=130, repeat_fraction=0.0, sizes=(4,), cycles=True,
            loop="closed, in-process, 1 in flight, per boot cycle",
            smoke_queries=8,
        ),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything a window consumes, made before any clock starts."""

    #: tenant -> query graphs in arrival order
    streams: dict
    #: tenant -> fair-share weight
    weights: dict
    #: the first query every freshly built service answers
    first_query: object
    #: the seed's own population, answered after the window and audited
    checks: list
    #: planned mutations (update-stream only)
    mutations: list
    generate_s: float

    def arrivals(self) -> list:
        """Every query of every tenant, tenant-major."""
        return [q for t in sorted(self.streams) for q in self.streams[t]]

    def fresh(self) -> tuple:
        """The same inputs with every graph a lap hands the program a
        new object, as a client's next request is, and the way back
        from each new query to the one it copies.  The program
        memoises a graph's kernel, canon and census on the object, the
        census under a key of the service that took it: the same
        objects served lap after lap would make later laps cheaper and
        carry every dead service's entries along (3.3 MB a lap on
        ``ppi``)."""
        origin = {}

        def copy(query):
            new = fresh_copy(query)
            origin[id(new)] = query
            return new

        return replace(
            self,
            streams={
                t: [copy(q) for q in s] for t, s in self.streams.items()
            },
            first_query=fresh_copy(self.first_query),
            mutations=[
                replace(op, graph=op.graph and fresh_copy(op.graph))
                for op in self.mutations
            ],
        ), origin


def fresh_copy(graph: LabeledGraph) -> LabeledGraph:
    """A new instance: no frozen kernel, no memoised canon or census."""
    return LabeledGraph.from_edges(
        graph.labels, graph.edges(), name=graph.name
    )


def newcomer(scale: str, seed: int):
    """A graph to add to ``ppi``, the size of the stored ones — so the
    incremental census and accounting do real work (the planner's own
    newcomers have 5-9 vertices)."""
    tiny = scale == "tiny"
    return ppi_like(
        num_graphs=1, avg_nodes=60 if tiny else 160,
        num_labels=8 if tiny else 10, seed=seed,
    )[0]


def make_inputs(spec: Spec, sizes: Sizes, seed: int) -> Inputs:
    start = perf_counter()
    if spec.nfv:
        graphs = [build_nfv_graph(spec.dataset, sizes.scale)]
    else:
        graphs = build_ftv_graphs(spec.dataset, sizes.scale)
    per_tenant = -(-sizes.queries // spec.tenants)
    mixes = default_tenant_mixes(
        spec.tenants, per_tenant,
        sizes=spec.sizes, repeat_fraction=spec.repeat_fraction,
    )
    phase = random.Random(f"{seed}:{spec.name}:arrivals")
    streams = {}
    for mix in mixes:
        stream = [
            mq.query.graph
            for mq in generate_tenant_stream(
                graphs, mix, seed=POPULATION_SEED
            )
        ]
        at = phase.randrange(len(stream))
        streams[mix.tenant] = stream[at:] + stream[:at]
    first = generate_workload(graphs, 1, spec.sizes[0], seed=seed)[0].graph
    per_size = -(-sizes.checks // len(spec.sizes))
    checks = [
        q.graph
        for size in spec.sizes
        for q in generate_workload(graphs, per_size, size, seed=seed)
    ]
    mutations = []
    if sizes.mutations:
        mutations = plan_update_stream(
            graphs, sizes.mutations, seed=POPULATION_SEED,
            add_fraction=0.6,
        )
        for i, op in enumerate(mutations):
            if op.graph is not None:
                op.graph = newcomer(sizes.scale, POPULATION_SEED + i)
    return Inputs(
        streams=streams,
        weights={m.tenant: m.weight for m in mixes},
        first_query=first,
        checks=checks,
        mutations=mutations,
        generate_s=perf_counter() - start,
    )


# ----------------------------------------------------------------------
# building the service (public API only)
# ----------------------------------------------------------------------

def build_service(
    spec: Spec, sizes: Sizes, inputs: Inputs, *, store=None, journal=None
) -> Service:
    policy = TenantPolicy(max_in_flight=4, step_budget=spec.budget)
    service = Service(
        workers=spec.workers,
        admission=AdmissionController(default_policy=policy),
        shards=spec.shards,
        routing=True,
        store=store,
        journal=journal,
    )
    for tenant, weight in inputs.weights.items():
        service.admission.set_policy(
            tenant,
            TenantPolicy(
                max_in_flight=4, step_budget=spec.budget, weight=weight
            ),
        )
    kw = {"algorithms": spec.algorithms} if spec.nfv else {}
    service.load_dataset(spec.dataset, scale=sizes.scale, **kw)
    return service


def ticket_answer(ticket) -> tuple:
    """The answer-contractual part of a ticket, or a failure marker."""
    if ticket.state is not TicketState.DONE:
        return ("rejected", ticket.reject_reason)
    r = ticket.result
    if r.killed:
        return ("killed",)
    return (r.found, r.num_embeddings, tuple(r.matching_ids))


def answer(
    service: Service, spec: Spec, query, tenant: str = "probe",
    log: Optional[SpanLog] = None, parent: Optional[int] = None,
    budget_steps: Optional[int] = None,
):
    """Submit one query and pump until it resolves; its ticket."""
    pc = perf_counter
    a = pc()
    ticket = service.submit(
        spec.dataset, query, tenant=tenant, options=spec.options(),
        budget_steps=budget_steps,
    )
    b = pc()
    if log is not None:
        log.add("service.submit", parent, a, b)
    while not ticket.done and not service.idle:
        a = pc()
        service.pump()
        b = pc()
        if log is not None:
            log.add("service.pump", parent, a, b)
    return ticket


def failed_answer(got: tuple) -> bool:
    """Whether an answer tuple marks a failed operation."""
    return not isinstance(got[0], bool)


# ----------------------------------------------------------------------
# the timed windows
# ----------------------------------------------------------------------

@dataclass
class Window:
    """What one lap measured: a set-up and the timed window after it."""

    #: seconds its set-up took (``Harness.ready``; cold-boot: the
    #: fresh build)
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: (query graph, answer tuple, latency seconds) per query, in
    #: completion order
    served: list = field(default_factory=list)
    #: submit -> applied seconds per acknowledged mutation
    mutation_acks: list = field(default_factory=list)
    mutations_refused: int = 0
    #: matcher steps charged while draining to a quiesce point (they
    #: are billed to the mutation's span, not to ``service.pump``)
    quiesce_steps: int = 0
    checkpoint_s: float = 0.0
    #: the service that served it (cold-boot: the one booted from the
    #: store); dropped when the next lap starts
    service: Optional[Service] = None
    store_dir: Optional[str] = None
    #: exact counters read from the service(s) after the window
    counts: dict = field(default_factory=dict)
    #: (query graph, answer tuple) per check query, answered untimed
    #: by ``service`` once the window has closed
    checked: list = field(default_factory=list)
    #: cold-boot: seconds of the cycle's three stages, and whether its
    #: store-booted answers differed from the fresh ones
    stages: dict = field(default_factory=dict)
    boot_mismatches: int = 0


def closed_loop(
    service: Service,
    spec: Spec,
    inputs: Inputs,
    log: Optional[SpanLog],
    *,
    mutations=(),
    checkpoint_dir: Optional[str] = None,
) -> Window:
    """Each tenant keeps ``spec.concurrency`` queries in flight.

    A query's latency runs from ``perf_counter()`` at ``submit`` to the
    return of the ``pump()`` that hands its ticket back; a ticket
    already done at submit (cache hit, rejection) is timed across
    ``submit``.  With ``mutations``, one is submitted at even spacing
    while queries are in flight; feeding stops, the loop pumps to the
    quiesce point until the mutation is applied, then resumes.  After
    two thirds of the mutations the store is checkpointed, so the rest
    stay in the journal for the recovery audit.
    """
    out = Window(service=service, store_dir=checkpoint_dir)
    options = spec.options()
    dataset = spec.dataset
    pending = {t: deque(s) for t, s in inputs.streams.items()}
    outstanding = dict.fromkeys(pending, 0)
    opened: dict[int, tuple] = {}
    served = out.served
    ops = deque(mutations)
    total = sum(len(s) for s in pending.values())
    every = max(1, total // (len(ops) + 1)) if ops else 0
    checkpoint_at = len(ops) - len(ops) // 3
    pc = perf_counter

    def work_steps() -> int:
        return service.metrics.value("service.work_steps")

    def feed(root) -> None:
        for tenant in sorted(pending):
            queue = pending[tenant]
            while queue and outstanding[tenant] < spec.concurrency:
                query = queue.popleft()
                a = pc()
                ticket = service.submit(
                    dataset, query, tenant=tenant, options=options
                )
                b = pc()
                if log is not None:
                    log.add("service.submit", root, a, b)
                if ticket.done:
                    served.append((query, ticket_answer(ticket), b - a))
                else:
                    opened[ticket.id] = (query, a)
                    outstanding[tenant] += 1

    def pump(parent, name="service.pump") -> int:
        a = pc()
        finished = service.pump()
        b = pc()
        if log is not None:
            log.add(name, parent, a, b)
        for ticket in finished:
            query, t0 = opened.pop(ticket.id)
            outstanding[ticket.tenant] -= 1
            served.append((query, ticket_answer(ticket), b - t0))
        return len(finished)

    def mutate(root) -> None:
        op = ops.popleft()
        span = log.span(f"service.{op.op}", root) if log else nullcontext()
        with span as parent:
            a = pc()
            steps = work_steps()
            ticket = service.submit_mutation(
                dataset, op.op, graph=op.graph, graph_id=op.graph_id
            )
            while ticket.state == "pending":
                pump(parent, "service.pump[quiesce]")
            out.quiesce_steps += work_steps() - steps
            b = pc()
        if not ticket.applied:
            out.mutations_refused += 1
            return
        out.mutation_acks.append(b - a)
        if checkpoint_dir and len(out.mutation_acks) == checkpoint_at:
            _, out.checkpoint_s = timed(
                log, "service.checkpoint_store", root,
                service.checkpoint_store, checkpoint_dir,
            )

    gc.collect()
    with (log.span("window") if log else nullcontext()) as root:
        begin = pc()
        since = 0
        feed(root)
        while True:
            done = pump(root)
            since += done
            if ops and (since >= every or not any(pending.values())):
                mutate(root)
                since = 0
                feed(root)
            elif done:
                feed(root)
            if service.idle and not any(pending.values()) and not ops:
                break
        out.wall_s = pc() - begin
    # a ticket still open after the service went idle never came back
    for query, _t0 in opened.values():
        served.append((query, ("lost",), float("nan")))
    out.counts = service_counts(service)
    return out


def socket_loop(
    service: Service, spec: Spec, inputs: Inputs,
    log: Optional[SpanLog], address: tuple,
) -> Window:
    """One sequential HTTP client: next request after the last reply."""
    out = Window(service=service)
    client = ObsClient(*address)
    (tenant, stream), = inputs.streams.items()
    served = out.served
    pc = perf_counter
    gc.collect()
    with (log.span("window") if log else nullcontext()) as root:
        begin = pc()
        for query in stream:
            a = pc()
            status, body, _ = client.submit(
                spec.dataset, query, tenant=tenant
            )
            b = pc()
            if log is not None:
                log.add("obs.client.submit", root, a, b)
            if status == 200 and not body["result"]["killed"]:
                r = body["result"]
                got = (
                    r["found"], r["num_embeddings"],
                    tuple(r["matching_ids"]),
                )
            else:
                got = ("http", status)
            served.append((query, got, b - a))
        out.wall_s = pc() - begin
    return out


def answer_checks(service: Service, spec: Spec, inputs: Inputs) -> list:
    """The seed's check population, answered one at a time by the
    service of a window that has closed and had its counters read."""
    budget = CHECK_BUDGET_FACTOR * spec.budget
    return [
        (query, ticket_answer(
            answer(service, spec, query, "check", budget_steps=budget)
        ))
        for query in inputs.checks
    ]


def service_counts(service: Service) -> dict:
    """Exact counters of a service, read once after its window."""
    value = service.metrics.value
    cache = service.cache.as_metrics()
    admission = service.admission.stats()
    routing = value("service.routing")
    return {
        "work_steps": value("service.work_steps"),
        "ticks": value("service.ticks"),
        "completed": value("service.completed"),
        "cache_hits": cache["hits"],
        "cache_lookups": cache["lookups"],
        "admitted": admission["admitted"],
        "rejected": admission["rejected"],
        "coalesced": admission["coalesced"],
        "routed": routing["routed"],
        "shards_pruned": routing["shards_pruned"],
        "fanout_waste": value("service.fanout_waste"),
        "pool_work": list(value("service.per_pool_work")),
        "shards": value("service.shards"),
    }


# ----------------------------------------------------------------------
# set-up and laps
# ----------------------------------------------------------------------

class Harness:
    """Builds and tears down the services of one run."""

    def __init__(
        self, spec: Spec, sizes: Sizes, inputs: Inputs, scratch: str
    ) -> None:
        self.spec = spec
        self.sizes = sizes
        self.inputs = inputs
        self.scratch = scratch
        #: attached for the traced pass only
        self.log: Optional[SpanLog] = None
        #: seconds the last ``ready()`` took
        self.setup_s = 0.0
        self._doors: list[BackgroundFrontDoor] = []

    def tempdir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def _span(self, name: str):
        return self.log.span(name) if self.log else nullcontext()

    def ready(self) -> tuple:
        """One timed set-up of this workload's own serving
        configuration: store and journal attached where it mutates,
        front door bound where it serves over the socket.  Returns
        ``(service, address or None, store directory or None)``."""
        store = self.tempdir() if self.inputs.mutations else None
        gc.collect()
        start = perf_counter()
        with self._span("setup") as parent:
            service, _ = timed(
                self.log, "service.load_dataset", parent,
                build_service, self.spec, self.sizes, self.inputs,
                store=store, journal=store,
            )
            address = None
            if self.spec.door:
                door = BackgroundFrontDoor(service)
                address = door.start()
                self._doors.append(door)
        self.setup_s = perf_counter() - start
        return service, address, store

    def close_doors(self) -> None:
        for door in self._doors:
            door.stop()
        self._doors.clear()

    def lap(self) -> Window:
        """One lap: set up from nothing, then serve the whole stream.
        Every lap of a run gets the same inputs and so does the same
        work; only the host's mood differs between them."""
        spec = self.spec
        inputs, origin = self.inputs.fresh()
        if spec.cycles:
            root = self.tempdir()
            try:
                window = self._cycle(inputs, root)
            finally:
                shutil.rmtree(root, ignore_errors=True)
        else:
            service, address, store = self.ready()
            if address is None:
                window = closed_loop(
                    service, spec, inputs, self.log,
                    mutations=inputs.mutations, checkpoint_dir=store,
                )
            else:
                window = socket_loop(
                    service, spec, inputs, self.log, address
                )
                # a bound door owns its service; unbind before reading it
                self.close_doors()
                window.counts = service_counts(service)
            window.setup_s = self.setup_s
        # rows name the run's own queries, not this lap's copies, which
        # die (memoised census and all) with the lap's service
        window.served = [
            (origin[id(query)], got, wait)
            for query, got, wait in window.served
        ]
        return window

    def _cycle(self, inputs: Inputs, root: str) -> Window:
        """cold-boot's lap.  Fresh build -> first answer;
        ``write_catalog`` to ``root``; build from that store -> first
        answer; then both services answer the probes, one at a time.
        Every booted answer must equal the fresh one.  The window's
        wall is the probes' time."""
        spec, sizes = self.spec, self.sizes
        out = Window()
        gc.collect()
        with self._span("cycle") as parent:
            start = perf_counter()
            fresh, out.setup_s = timed(
                self.log, "service.load_dataset", parent,
                build_service, spec, sizes, inputs,
            )
            first = ticket_answer(answer(fresh, spec, inputs.first_query))
            fresh_s = perf_counter() - start
            gc.collect()
            _, publish_s = timed(
                self.log, "store.write_catalog", parent,
                StoreWriter(root).write_catalog, fresh.catalog,
            )
            gc.collect()
            start = perf_counter()
            booted, _ = timed(
                self.log, "service.load_dataset[store]", parent,
                build_service, spec, sizes, inputs, store=root,
            )
            again = ticket_answer(answer(booted, spec, inputs.first_query))
            boot_s = perf_counter() - start
        out.stages = {
            "fresh_warm_s": fresh_s, "store_publish_s": publish_s,
            "store_boot_s": boot_s,
        }
        probes = inputs.arrivals()
        rows = {}
        gc.collect()
        with self._span("window") as parent:
            for key, service in (("fresh", fresh), ("booted", booted)):
                rows[key] = []
                for query in probes:
                    a = perf_counter()
                    ticket = answer(
                        service, spec, query, "probe", self.log, parent
                    )
                    rows[key].append((
                        query, ticket_answer(ticket), perf_counter() - a,
                    ))
        out.boot_mismatches = int(not (
            again == first and not failed_answer(first)
            and [r[1] for r in rows["fresh"]]
            == [r[1] for r in rows["booted"]]
        ))
        out.served = rows["fresh"] + rows["booted"]
        out.wall_s = sum(row[2] for row in out.served)
        out.service = booted
        for service in (fresh, booted):
            for key, value in service_counts(service).items():
                if isinstance(value, list):
                    old = out.counts.get(key, [0] * len(value))
                    out.counts[key] = [a + b for a, b in zip(old, value)]
                elif key == "shards":
                    out.counts[key] = value
                else:
                    out.counts[key] = out.counts.get(key, 0) + value
        return out
