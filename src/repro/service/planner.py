"""The race planner: what one admitted ticket races, shard by shard.

For each ticket the planner decides which shards race and at which
race step each starts (through the entry's
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
settle on the head alone.  A routed decision fan-out is staged the
same way one level up: its expected-first-true shard starts at 0 and
every other shard's race ``HEDGE_STEPS`` later.
What a ticket works out once (the census, each shard's candidates,
the rewritten queries and their VF2 plans) lives on the ticket's
flight record, so every race of the ticket — each shard's leg and a
rerouted one — reuses it and it dies with the ticket.  A variant that
never starts builds nothing: an NFV variant's engine is built on the
round it joins its race, and an FTV sweep makes its rewriting on its
first resume.

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
from .schema import (
    Section,
    check_algorithm,
    check_bool,
    check_int,
    check_rewriting,
    check_tuple,
)

__all__ = [
    "HEAD_START_STEPS", "HEDGE_STEPS", "QueryOptions", "RacePlanner",
    "Rewrite", "SERVED_ALGORITHMS", "SERVED_FTV_METHOD",
    "SERVED_PATH_LENGTH", "SERVED_REWRITINGS", "race_starts",
]

#: race steps a race's first-declared variant runs alone before the
#: rest of its variants join: the full race from step 0 has the lower
#: latency, but most queries settle on the head, and a loser's step is
#: throughput another query did not get on a bounded pool
HEAD_START_STEPS = 4_096
#: race steps a routed decision fan-out's expected-first-true shard
#: races alone before the other shards' races start: the common case
#: (that shard settles within it) never pays sibling work, while a slow
#: one falls back to near-parallel racing instead of serialising the
#: tail
HEDGE_STEPS = 64

#: the variant field the service races unless a query, a spec or a flag
#: names another: an NFV race runs the algorithm x rewriting product,
#: an FTV race VF2 under each rewriting
SERVED_ALGORITHMS: tuple[str, ...] = ("GQL", "SPA")
SERVED_REWRITINGS: tuple[str, ...] = ("Orig", "DND")

#: the filter every served FTV collection is indexed with and the
#: longest path (in edges) its census counts — the shards' indexes, the
#: query census, the store's records and the mutation oracle read them
SERVED_FTV_METHOD = "Grapes"
SERVED_PATH_LENGTH = 3


@dataclass(frozen=True)
class QueryOptions(Section):
    """Per-query execution configuration, validated at construction
    like every :class:`~repro.service.schema.Section`: a bad field
    raises :class:`~repro.service.schema.SpecError` naming its dotted
    path (``options.rewritings[1]``), and algorithm names are stored as
    the registry's keys (``"gql"`` -> ``"GQL"``), so one variant set
    has one cache signature.

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
    decision_only: bool = False

    _PATH = "options"
    _CHECKS = {
        "algorithms": check_tuple(check_algorithm, nonempty=True),
        "rewritings": check_tuple(check_rewriting, nonempty=True),
        "max_embeddings": check_int(1),
        "decision_only": check_bool,
    }

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
            self.decision_only,
        )


def race_starts(
    variants, budget_steps: Optional[int] = None, offset: int = 0
) -> Optional[dict]:
    """The race step each variant of a race joins at.

    The first-declared variant — already the tie-break winner — starts
    at 0 and every other one at ``HEAD_START_STEPS``, so a query its
    head settles alone never pays the field's width.  Each variant
    keeps its whole budget from its own start, so the answer is the
    full race's.  A race of one, or one whose ``budget_steps`` is at
    most ``HEAD_START_STEPS``, starts every variant together: the head
    would be killed before the field joins and the race would hold a
    slot doing nothing until it did.  ``offset`` moves every start
    that many steps later (a routed decision fan-out's hedged shard).
    None when every variant starts at step 0.
    """
    staged = len(variants) > 1 and not (
        budget_steps and budget_steps <= HEAD_START_STEPS
    )
    if not (staged or offset):
        return None
    late = offset + (HEAD_START_STEPS if staged else 0)
    return {v: late if i else offset for i, v in enumerate(variants)}


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
    and a decision-only fan-out gives every shard but the
    expected-first-true one a ``HEDGE_STEPS`` start.
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

    def plan(self, flight) -> dict[int, int]:
        """Shard -> the race step its leg starts at, for one ticket.

        One race per involved shard, all from step 0; a one-shard
        collection (or an NFV entry, which lives whole on its home
        shard) is the fan-out of width one.  With routing on, an FTV
        fan-out over more than one shard is first planned by the
        entry's router: shards whose probe is empty are pruned *before*
        any race is built, and a decision-only fan-out is staged — the
        expected-first-true shard starts at 0 and every other shard at
        ``HEDGE_STEPS``, so a first-true answer from the head shard
        cancels siblings that have not started.  The probes' candidate
        lists stay on the flight for the races to sweep.
        """
        ticket, entry = flight.ticket, flight.entry
        involved = entry.involved_shards()
        if not (
            self.routing and entry.router is not None and len(involved) > 1
        ):
            return dict.fromkeys(involved, 0)
        plan = entry.router.plan(
            self.census(flight, entry.interner),
            involved,
            flight.options.decision_only,
        )
        flight.candidates = plan.candidates
        self.routed_queries.inc()
        self.shards_pruned.inc(len(plan.pruned))
        self.tracer.event(
            ticket.id,
            "route_plan",
            self.dispatcher.clock,
            order=list(plan.order),
            pruned=list(plan.pruned),
            staged=plan.staged,
        )
        later = HEDGE_STEPS if plan.staged else 0
        return {
            shard: later if i else 0 for i, shard in enumerate(plan.order)
        }

    def build(
        self, flight, shard: int, offset: int = 0
    ) -> tuple[RaceTask, Optional[tuple]]:
        """One shard's race, every variant's start moved ``offset``
        race steps later (each engine built on the round its variant
        joins), and its local -> global graph id map (None = identity,
        NFV).

        Every leg of a ticket is built here, so race construction can
        never diverge between a leg built at dispatch and a rerouted
        one (which starts over at offset 0).
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
                count_only=True,
            )
        else:
            engines = self._ftv_engines(flight, shard, sub, id_map)
        race = RaceTask(
            engines, budget=budget, quantum=self.dispatcher.quantum,
            starts=race_starts(
                flight.variants, ticket.budget_steps, offset
            ),
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

    def census(self, flight, interner: LabelInterner) -> dict:
        """The ticket's query census (feature -> count) over paths of
        up to :data:`SERVED_PATH_LENGTH` edges, taken once.

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
                SERVED_PATH_LENGTH,
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
                self.census(flight, index.interner)
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
