"""The race planner: what one admitted ticket races, shard by shard.

For each ticket the planner decides which shards race and in which
waves (through the entry's
:class:`~repro.service.routing.ShardRouter` when routing is on), and
builds each shard's :class:`~repro.psi.executors.RaceTask`: the Ψ
engines :meth:`~repro.psi.framework.PsiNFV.engines` builds for an NFV
entry, and for an FTV entry one
decision sweep per rewriting — the shard's index probed once with the
ticket's one query census, the candidates verified with VF2 in id order.
A race is staged (:func:`race_starts`): its first-declared variant
races alone for ``HEAD_START_STEPS`` before the field joins.  The
full race from step 0 has the lower latency, but on a bounded pool a
loser's step is work another query did not get, and most queries
settle on the head alone.
What a ticket works out once (the census, each shard's candidates,
the rewritten queries and their VF2 plans) lives on the ticket's
flight record, so every race of the ticket — each shard of the first
wave, a deferred wave, a rerouted leg — reuses it and it dies with
the ticket.  An FTV sweep
makes its rewriting on its first resume, so a variant that never
starts builds nothing.

The planner also owns the per-graph verification bills
(:attr:`RacePlanner.graph_bills`) the rebalancer migrates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..graphs import LabeledGraph
from ..indexing import LabelInterner, coded_path_census
from ..matching import Budget, MatchOutcome, VF2Matcher
from ..obs import Counter
from ..psi.executors import RaceTask
from ..psi.variants import Variant, variants_from_spec
from ..rewriting import make_rewriting

__all__ = [
    "HEAD_START_STEPS", "QueryOptions", "RacePlanner", "Rewrite",
    "SERVED_ALGORITHMS", "SERVED_REWRITINGS", "race_starts",
]

#: race steps a race's first-declared variant runs alone before the
#: rest of its variants join: the full race from step 0 has the lower
#: latency, but most queries settle on the head, and a loser's step is
#: throughput another query did not get on a bounded pool
HEAD_START_STEPS = 4_096

#: the variant field the service races unless a query, a spec or a flag
#: names another: an NFV race runs the algorithm x rewriting product,
#: an FTV race VF2 under each rewriting
SERVED_ALGORITHMS: tuple[str, ...] = ("GQL", "SPA")
SERVED_REWRITINGS: tuple[str, ...] = ("Orig", "DND")


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

    algorithms: tuple[str, ...] = SERVED_ALGORITHMS
    rewritings: tuple[str, ...] = SERVED_REWRITINGS
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


def race_starts(
    variants, budget_steps: Optional[int] = None
) -> Optional[dict]:
    """The race step each variant of a race joins at.

    The first-declared variant — already the tie-break winner — starts
    at 0 and every other one at ``HEAD_START_STEPS``, so a query its
    head settles alone never pays the field's width.  Each variant
    keeps its whole budget from its own start, so the answer is the
    full race's.  None, every variant from step 0, for a race of one
    and for a ``budget_steps`` of at most ``HEAD_START_STEPS``: the
    head would be killed before the field joins and the race would
    hold a slot doing nothing until it did.
    """
    if len(variants) < 2 or (
        budget_steps and budget_steps <= HEAD_START_STEPS
    ):
        return None
    return {v: HEAD_START_STEPS if i else 0 for i, v in enumerate(variants)}


class Rewrite:
    """One rewritten form of a ticket's query, and the VF2 plan its
    sweeps search by (built by the first sweep that has a candidate)."""

    __slots__ = ("graph", "plan")

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        self.plan = None


def _rewrite(flight, rewriting: str, stats) -> Rewrite:
    """The ticket's query under ``rewriting`` on a partition with label
    ``stats``: the flight's :class:`Rewrite` of that permutation, made
    by the first sweep that lands on it."""
    query = flight.ticket.query
    perm = make_rewriting(rewriting).permutation(query, stats)
    rewrite = flight.rewrites.get(perm)
    if rewrite is None:
        rewrite = flight.rewrites[perm] = Rewrite(
            query.permuted(perm, name=f"{query.name}:{rewriting}")
        )
    return rewrite


class RacePlanner:
    """Plans and builds the shard races of admitted tickets.

    ``routing`` probes every involved shard's filter index before
    fanning out: shards with no candidate are pruned from the fan-out
    and decision-only fan-outs race in expected-first-true wave order.
    Off = bit-for-bit the unrouted fan-out.
    """

    def __init__(self, dispatcher, tracer, routing: bool) -> None:
        self.dispatcher = dispatcher
        self.tracer = tracer
        self.routing = routing
        #: queries whose fan-out went through the shard router
        self.routed_queries = Counter()
        #: shard races never built because their probe was empty
        self.shards_pruned = Counter()
        #: staged races settled before their field started
        self.races_head_only = Counter()
        #: (dataset, global graph id) -> verification steps billed to
        #: that stored graph across every FTV sweep — the per-graph
        #: load attribution the rebalancer migrates on (a size proxy
        #: cannot see that one graph of a balanced shard is hot)
        self.graph_bills: dict[tuple, int] = {}
        self._verifier = VF2Matcher()

    def plan(self, flight) -> tuple[tuple, list]:
        """``(first-wave shards, deferred waves)`` for one ticket.

        One race per involved shard; a one-shard collection (or an NFV
        entry, which lives whole on its home shard) is the fan-out of
        width one.  With routing on, an FTV fan-out over more than one
        shard is first planned by the entry's router: shards whose
        probe is empty are pruned *before* any race is built, and a
        decision-only fan-out is staged into waves — the
        expected-first-true shard races alone, the remaining shards
        are built and dispatched only if it misses.  The probes'
        candidate lists stay on the flight for the races to sweep.
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
        flight.candidates = plan.candidates
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
            assert sub.psi is not None
            engines = sub.psi.engines(
                ticket.query,
                flight.variants,
                1 if options.decision_only else options.max_embeddings,
                options.count_only,
            )
        else:
            engines = self._ftv_engines(flight, shard, sub, id_map)
        race = RaceTask(
            engines, budget=budget, quantum=self.dispatcher.quantum,
            starts=race_starts(flight.variants, ticket.budget_steps),
        )
        return race, id_map

    def settled(self, flight, outcome) -> None:
        """Count a race its head settled before the field started:
        every variant with a start offset was billed nothing."""
        starts = race_starts(flight.variants, flight.ticket.budget_steps)
        if starts is None or outcome.killed:
            return
        bills = outcome.per_variant_steps
        if not any(bills[v] for v, start in starts.items() if start):
            self.races_head_only.inc()

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

    def _ftv_engines(
        self, flight, shard: int, sub, id_map: Optional[tuple]
    ) -> dict:
        """One composite engine per rewriting, sweeping all candidates.

        The paper races per candidate pair (replayed from solo costs by
        :class:`repro.harness.runner.FTVCostMatrix`); the service races
        whole decision sweeps so a query is one schedulable race like
        any other.  A rewriting is a function of the query and this
        partition's label statistics, so across a ticket's shards (and
        between variants) it mostly lands on a permutation already
        taken: that rewritten graph, its frozen kernel and its VF2 plan
        are then shared through the flight record instead of rebuilt.
        The shard's candidates are the route plan's when it probed the
        shard, else probed here once and kept for the ticket's later
        legs.
        """
        index = sub.ftv_index
        assert index is not None
        candidates = flight.candidates.get(shard)
        if candidates is None:
            candidates = flight.candidates[shard] = index.probe(
                self.census(flight, index.interner, index.max_path_length)
            )
        return {
            variant: self.ftv_sweep(
                index,
                partial(_rewrite, flight, variant.rewriting, sub.stats),
                candidates,
                flight.options.decision_only, flight.ticket.dataset, id_map,
            )
            for variant in flight.variants
        }

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

        ``rewrite`` is the :class:`Rewrite` to search by, or a callable
        that makes it on the sweep's first resume.  The VF2 search plan
        is a function of the rewritten query alone, so the first sweep
        of ``rewrite`` that has a candidate builds it and every engine
        of every sweep of it searches by that one; it lives as long as
        the ticket is open and no longer.
        """
        if callable(rewrite):
            rewrite = rewrite()
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
