"""The Ψ-framework: parallel subgraph querying via racing variants.

Two frontends mirror the paper's §8:

* :class:`PsiNFV` — matching queries against one large stored graph;
  variants combine NFV algorithms (GraphQL, sPath, QuickSI, ...) with
  query rewritings.  Races run on steppable engines via the
  deterministic interleaved executor (or real threads on request).
* :class:`PsiFTV` — decision queries over an FTV index (Grapes/GGSX);
  the index's construction and filtering stages are untouched, and the
  race happens in the verification stage, per candidate graph, with one
  simulated thread per rewriting.

Both charge the configured :class:`OverheadModel` per race, honouring
the paper's remark that thread spawn/sync overhead bounds the useful
number of parallel variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..graphs import LabeledGraph
from ..indexing import FTVIndex, VerificationReport
from ..matching import (
    DEFAULT_MAX_EMBEDDINGS,
    Budget,
    GraphIndex,
    Matcher,
    make_matcher,
)
from ..rewriting import LabelStats, RewrittenQuery, make_rewriting
from .executors import (
    AttemptCost,
    OverheadModel,
    RaceOutcome,
    interleaved_race,
    race_from_costs,
)
from .variants import Variant

__all__ = ["PsiNFV", "PsiFTV", "PsiResult", "PsiFTVQueryResult"]


@dataclass
class PsiResult:
    """Result of one Ψ-NFV query.

    ``embeddings`` are translated back to the *original* query's node
    IDs, whatever rewriting won the race.
    """

    race: RaceOutcome
    embeddings: list[dict[int, int]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """Whether the winning attempt found an embedding."""
        return self.race.found

    @property
    def steps(self) -> int:
        """The race's execution time (winner + overhead)."""
        return self.race.steps

    @property
    def winner(self) -> Optional[Variant]:
        """The winning variant (None when the race was killed)."""
        return self.race.winner  # type: ignore[return-value]


class PsiNFV:
    """Ψ-framework over NFV matchers on a single stored graph.

    Parameters
    ----------
    graph:
        The stored graph.
    overhead:
        Race overhead model (defaults to free).
    """

    def __init__(
        self,
        graph: LabeledGraph,
        overhead: OverheadModel = OverheadModel(),
    ) -> None:
        self.graph = graph
        self.overhead = overhead
        self.stats = LabelStats.of_graph(graph)
        self._matchers: dict[str, Matcher] = {}
        self._rewritten: dict[str, RewrittenQuery] = {}
        # the memo's owner is held strongly and compared by identity:
        # an id()-keyed memo would go stale when a dead query's address
        # is reused by a new one (CPython recycles addresses)
        self._rewritten_query: Optional[LabeledGraph] = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def matcher(self, name: str) -> Matcher:
        """Cached matcher instance by short name."""
        m = self._matchers.get(name)
        if m is None:
            m = make_matcher(name)
            self._matchers[name] = m
        return m

    def prepared(self, algorithm: str) -> GraphIndex:
        """Cached per-algorithm index of the stored graph.

        The memo is :data:`repro.caching.prepare_cache` itself (via
        :meth:`Matcher.prepare`), not a private dict: a second layer
        would answer reuse silently, leaving the cache's hit counters
        frozen at the warm-time misses — the "0 hits despite warm
        indexes" metrics lie the serving bench used to report.  One
        layer means every reuse registers as a hit and eviction has a
        single place to invalidate.
        """
        return self.matcher(algorithm).prepare(self.graph)

    def rewritten(
        self,
        query: LabeledGraph,
        rewriting: str,
        rng: Optional[random.Random] = None,
    ) -> RewrittenQuery:
        """Cached rewritten instance of ``query`` (per-query cache)."""
        if self._rewritten_query is not query:
            self._rewritten = {}
            self._rewritten_query = query
        rq = self._rewritten.get(rewriting)
        if rq is None:
            rq = make_rewriting(rewriting).apply(query, self.stats, rng)
            self._rewritten[rewriting] = rq
        return rq

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def run_variant(
        self,
        query: LabeledGraph,
        variant: Variant,
        budget: Optional[Budget] = None,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> AttemptCost:
        """Standalone (non-racing) attempt; used to build cost matrices."""
        rq = self.rewritten(query, variant.rewriting)
        outcome = self.matcher(variant.algorithm).run(
            self.prepared(variant.algorithm),
            rq.graph,
            budget=budget,
            max_embeddings=max_embeddings,
            count_only=count_only,
        )
        return AttemptCost(
            steps=outcome.steps, found=outcome.found, killed=outcome.killed
        )

    def race(
        self,
        query: LabeledGraph,
        variants: tuple[Variant, ...] | list[Variant],
        budget: Optional[Budget] = None,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> PsiResult:
        """Race ``variants`` on ``query``; first finisher wins."""
        if not variants:
            raise ValueError("need at least one variant")
        rewritten = {
            v: self.rewritten(query, v.rewriting) for v in variants
        }

        race = interleaved_race(
            {
                v: self.matcher(v.algorithm).engine(
                    self.prepared(v.algorithm),
                    rewritten[v].graph,
                    max_embeddings=max_embeddings,
                    count_only=count_only,
                )
                for v in variants
            },
            budget=budget,
            overhead=self.overhead,
        )
        embeddings: list[dict[int, int]] = []
        if race.winner is not None and race.outcome is not None:
            rq = rewritten[race.winner]  # type: ignore[index]
            embeddings = [
                rq.translate_embedding(e) for e in race.outcome.embeddings
            ]
        return PsiResult(race=race, embeddings=embeddings)


@dataclass
class PsiFTVQueryResult:
    """Ψ-FTV decision-query result over a dataset."""

    candidate_ids: list[int]
    reports: list[VerificationReport] = field(default_factory=list)
    races: list[RaceOutcome] = field(default_factory=list)

    @property
    def matching_ids(self) -> list[int]:
        """IDs of graphs verified to contain the query."""
        return [r.graph_id for r in self.reports if r.matched]


class PsiFTV:
    """Ψ-framework over an FTV index (paper §8, FTV mode).

    Index construction and filtering are the base method's own; for
    every candidate graph the verification races one simulated thread
    per rewriting, keeping the first finisher.

    The race is evaluated with *adaptive doubling*: every rewriting is
    tried under a small step cap, which doubles geometrically until some
    variant completes (then the winner is the cheapest completion) or
    the budget is reached.  This is semantically identical to an ideal
    parallel race — the winner and its step count match the
    per-variant minimum — while doing O(#variants × winner-cost) work
    instead of O(#variants × budget).
    """

    def __init__(
        self,
        index: FTVIndex,
        rewritings: tuple[str, ...] | list[str],
        overhead: OverheadModel = OverheadModel(),
        per_graph_stats: bool = True,
    ) -> None:
        if not rewritings:
            raise ValueError("need at least one rewriting")
        self.index = index
        self.rewritings = tuple(rewritings)
        self.overhead = overhead
        self.per_graph_stats = per_graph_stats
        self._collection_stats = LabelStats.of_collection(index.graphs)
        self._graph_stats: dict[int, LabelStats] = {}

    def _stats_for(self, graph_id: int) -> LabelStats:
        if not self.per_graph_stats:
            return self._collection_stats
        stats = self._graph_stats.get(graph_id)
        if stats is None:
            stats = LabelStats.of_graph(self.index.graphs[graph_id])
            self._graph_stats[graph_id] = stats
        return stats

    def rewritten_queries(
        self, query: LabeledGraph, graph_id: int
    ) -> dict[str, RewrittenQuery]:
        """The race's rewritten queries for one candidate graph."""
        stats = self._stats_for(graph_id)
        return {
            name: make_rewriting(name).apply(query, stats)
            for name in self.rewritings
        }

    def verify(
        self,
        query: LabeledGraph,
        graph_id: int,
        budget: Optional[Budget] = None,
    ) -> tuple[VerificationReport, RaceOutcome]:
        """Race the rewritings on one candidate graph's verification."""
        rewritten = self.rewritten_queries(query, graph_id)
        # one search plan per rewriting, shared by every doubling stage
        plans = {
            name: self.index.verify_plan(rq.graph)
            for name, rq in rewritten.items()
        }
        cap = budget.max_steps if budget and budget.max_steps else None
        over = self.overhead.cost(len(rewritten))

        # adaptive doubling (see class docstring)
        low = 1024
        costs: dict[str, AttemptCost] = {}
        while True:
            stage_cap = low if cap is None else min(low, cap)
            stage_budget = Budget(max_steps=stage_cap)
            completions: dict[str, AttemptCost] = {}
            for name, rq in rewritten.items():
                report = self.index.verify(
                    rq.graph, graph_id, stage_budget, plans[name]
                )
                cost = AttemptCost(
                    steps=report.steps,
                    found=report.matched,
                    killed=report.killed,
                )
                costs[name] = cost
                if not cost.killed:
                    completions[name] = cost
            if completions:
                race = race_from_costs(
                    costs, budget_steps=cap, overhead=self.overhead
                )
                break
            if cap is not None and stage_cap >= cap:
                race = race_from_costs(
                    costs, budget_steps=cap, overhead=self.overhead
                )
                break
            low *= 4
        matched = race.found
        report = VerificationReport(
            graph_id=graph_id,
            matched=matched,
            steps=race.steps,
            killed=race.killed,
        )
        return report, race

    def query(
        self,
        query: LabeledGraph,
        budget: Optional[Budget] = None,
    ) -> PsiFTVQueryResult:
        """Full decision query: base filtering + racing verification."""
        candidates = self.index.filter(query)
        result = PsiFTVQueryResult(candidate_ids=candidates)
        for gid in candidates:
            report, race = self.verify(query, gid, budget)
            result.reports.append(report)
            result.races.append(race)
        return result
