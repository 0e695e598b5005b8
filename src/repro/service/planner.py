"""The race planner: what one admitted ticket races, shard by shard.

For each ticket the planner decides which shards race and in which
waves (through the entry's
:class:`~repro.service.routing.ShardRouter` when routing is on), and
builds each shard's :class:`~repro.psi.executors.RaceTask`: the Ψ
engines of every variant for an NFV entry, and for an FTV entry one
decision sweep per rewriting — probe the shard's index with the
ticket's one query census, verify the candidates with VF2 in id order.
What a ticket works out once (the census, the rewritten queries and
their VF2 plans) lives on the ticket's flight record, so every race of
the ticket — each shard of the first wave, a deferred wave, a
rerouted leg — reuses it and it dies with the ticket.

The planner also owns the per-graph verification bills
(:attr:`RacePlanner.graph_bills`) the rebalancer migrates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..graphs import LabeledGraph
from ..indexing import LabelInterner, coded_path_census
from ..matching import Budget, MatchOutcome, VF2Matcher
from ..psi.variants import Variant, variants_from_spec
from ..rewriting import make_rewriting
from .dispatcher import RaceTask

__all__ = ["QueryOptions", "RacePlanner", "Rewrite"]


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


class Rewrite:
    """One rewritten form of a ticket's query, and the VF2 plan its
    sweeps search by (built by the first sweep that has a candidate)."""

    __slots__ = ("graph", "plan")

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self.plan = None


class RacePlanner:
    """Plans and builds the shard races of admitted tickets.

    ``routing`` consults per-shard feature sketches before fanning
    out: provably-empty shards are pruned from the fan-out and
    decision-only fan-outs race in expected-first-true wave order.
    Off = bit-for-bit the unrouted fan-out.
    """

    def __init__(self, dispatcher, tracer, routing: bool, metrics) -> None:
        self.dispatcher = dispatcher
        self.tracer = tracer
        self.routing = routing
        #: queries whose fan-out went through the shard router
        self.routed_queries = metrics.counter("service.routed_queries")
        #: shard races never built because a sketch proved them empty
        self.shards_pruned = metrics.counter("service.shards_pruned")
        #: (dataset, global graph id) -> verification steps billed to
        #: that stored graph across every FTV sweep — the per-graph
        #: load attribution the rebalancer migrates on (a size proxy
        #: cannot see that one graph of a balanced shard is hot)
        self.graph_bills: dict[tuple, int] = {}
        self._verifier = VF2Matcher()
        metrics.gauge("service.graph_bills", lambda: len(self.graph_bills))

    def plan(self, flight) -> tuple[tuple, list]:
        """``(first-wave shards, deferred waves)`` for one ticket.

        One race per involved shard; a one-shard collection (or an NFV
        entry, which lives whole on its home shard) is the fan-out of
        width one.  With routing on, an FTV fan-out over more than one
        shard is first planned by the entry's router: shards whose
        sketch proves them empty are pruned *before* any filter or
        engine work happens, and a decision-only fan-out is staged
        into waves — the expected-first-true shard races alone, the
        remaining shards are built and dispatched only if it misses.
        """
        ticket, entry = flight.ticket, flight.entry
        involved = entry.involved_shards()
        if not (
            self.routing and entry.router is not None and len(involved) > 1
        ):
            return involved, []
        plan = entry.router.plan(
            self.census(flight, entry.interner, entry.max_path_length),
            involved,
            flight.options.decision_only,
        )
        self.routed_queries.inc()
        self.shards_pruned.inc(len(plan.pruned))
        ticket.pruned = len(plan.pruned)
        self.tracer.event(
            ticket.id,
            "route_plan",
            self.dispatcher.clock,
            order=list(plan.order),
            pruned=list(plan.pruned),
            staged=plan.staged,
        )
        if plan.staged:
            return plan.order[:1], [plan.order[1:]]
        return plan.order, []

    def build(self, flight, shard: int) -> tuple[RaceTask, Optional[tuple]]:
        """One shard's race (engines built) and its local -> global
        graph id map (None = identity, NFV).

        Every leg of a ticket is built here, so race construction can
        never diverge between a first wave, a deferred one and a
        rerouted leg.
        """
        entry, ticket, options = flight.entry, flight.ticket, flight.options
        sub = entry.shard_entry(shard)
        id_map = None if entry.kind == "nfv" else entry.shard_ids(shard)
        budget = Budget(max_steps=ticket.budget_steps)
        if sub.kind == "nfv":
            psi = sub.psi
            assert psi is not None
            rewritten = {
                v: psi.rewritten(ticket.query, v.rewriting)
                for v in flight.variants
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
                for v in flight.variants
            }
        else:
            engines = self._ftv_engines(flight, sub, id_map)
        race = RaceTask(
            engines, budget=budget, quantum=self.dispatcher.quantum
        )
        return race, id_map

    def census(
        self, flight, interner: LabelInterner, max_path_length: int
    ) -> dict:
        """The ticket's query census (feature -> count), taken once.

        ``interner`` is the collection's one label code space — the
        entry's, which every shard's index shares — so the counts taken
        for the route plan are the counts every shard's trie is probed
        with, whichever race of the ticket asks first.  A mutation is
        the only thing that extends the interner and applies only while
        no ticket is open, so no census is ever older than the codes it
        is read against.
        """
        if flight.counts is None:
            query = flight.ticket.query
            flight.counts = coded_path_census(
                query,
                max_path_length,
                interner.encode_vertices(query.labels),
            ).counts
        return flight.counts

    def _ftv_engines(self, flight, sub, id_map: Optional[tuple]) -> dict:
        """One composite engine per rewriting, sweeping all candidates.

        The paper's PsiFTV races per candidate pair; the service races
        whole decision sweeps so a query is one schedulable race like
        any other.  A rewriting is a function of the query and this
        partition's label statistics, so across a ticket's shards (and
        between variants) it mostly lands on a permutation already
        taken: that rewritten graph, its frozen kernel and its VF2 plan
        are then shared through the flight record instead of rebuilt.
        """
        index = sub.ftv_index
        assert index is not None
        query = flight.ticket.query
        candidates = index.probe(
            self.census(flight, index.interner, index.max_path_length)
        )
        rewrites = flight.rewrites
        engines = {}
        for variant in flight.variants:
            perm = make_rewriting(variant.rewriting).permutation(
                query, sub.stats
            )
            rewrite = rewrites.get(perm)
            if rewrite is None:
                rewrite = rewrites[perm] = Rewrite(
                    query.permuted(
                        perm, name=f"{query.name}:{variant.rewriting}"
                    )
                )
            engines[variant] = self.ftv_sweep(
                index, rewrite, list(candidates),
                flight.options.decision_only, flight.ticket.dataset, id_map,
            )
        return engines

    def ftv_sweep(
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
