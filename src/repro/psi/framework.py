"""The Ψ-framework: parallel subgraph querying via racing variants.

:class:`PsiNFV` is the paper's §8 NFV mode: matching queries against
one large stored graph, with variants that combine NFV algorithms
(GraphQL, sPath, QuickSI, ...) with query rewritings.  Its
:meth:`PsiNFV.engines` builds the steppable engines every NFV race
runs — each on the round its variant joins — :meth:`PsiNFV.race`
through the deterministic interleaved executor, and the service's
race planner (:mod:`repro.service.planner`) through its dispatcher.

The FTV mode races the rewritings inside the verification stage of an
FTV index (Grapes/GGSX): the paper's figures replay it per candidate
pair from solo costs (:class:`repro.harness.runner.FTVCostMatrix`),
and the service races one decision sweep per rewriting
(:meth:`repro.service.planner.RacePlanner.ftv_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from ..graphs import LabeledGraph
from ..matching import (
    DEFAULT_MAX_EMBEDDINGS,
    Budget,
    GraphIndex,
    Matcher,
    make_matcher,
)
from ..metrics import CostRecord
from ..rewriting import LabelStats, RewrittenQuery, make_rewriting
from .executors import RaceOutcome, interleaved_race
from .variants import Variant

__all__ = ["PsiNFV", "PsiResult"]


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
        """The race's execution time (the winner's finish)."""
        return self.race.steps

    @property
    def winner(self) -> Optional[Variant]:
        """The winning variant (None when the race was killed)."""
        return self.race.winner  # type: ignore[return-value]


class PsiNFV:
    """Ψ-framework over NFV matchers on a single stored graph."""

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
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
        self, query: LabeledGraph, rewriting: str
    ) -> RewrittenQuery:
        """Cached rewritten instance of ``query`` (per-query cache)."""
        if self._rewritten_query is not query:
            self._rewritten = {}
            self._rewritten_query = query
        rq = self._rewritten.get(rewriting)
        if rq is None:
            rq = make_rewriting(rewriting).apply(query, self.stats)
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
    ) -> CostRecord:
        """Standalone (non-racing) attempt; used to build cost matrices."""
        rq = self.rewritten(query, variant.rewriting)
        outcome = self.matcher(variant.algorithm).run(
            self.prepared(variant.algorithm),
            rq.graph,
            budget=budget,
            max_embeddings=max_embeddings,
            count_only=count_only,
        )
        return CostRecord(
            steps=outcome.steps, found=outcome.found, killed=outcome.killed
        )

    def engines(
        self,
        query: LabeledGraph,
        variants: tuple[Variant, ...] | list[Variant],
        max_embeddings: int,
        count_only: bool,
    ) -> dict:
        """One engine builder per variant: a zero-argument callable
        making its matcher's search of the rewritten ``query`` over the
        stored graph's prepared index.  :class:`RaceTask` calls it on
        the round the variant joins, so a variant a staged race never
        starts neither rewrites the query nor builds an engine."""
        return {
            v: partial(self._engine, query, v, max_embeddings, count_only)
            for v in variants
        }

    def _engine(
        self,
        query: LabeledGraph,
        variant: Variant,
        max_embeddings: int,
        count_only: bool,
    ):
        return self.matcher(variant.algorithm).engine(
            self.prepared(variant.algorithm),
            self.rewritten(query, variant.rewriting).graph,
            max_embeddings=max_embeddings,
            count_only=count_only,
        )

    def race(
        self,
        query: LabeledGraph,
        variants: tuple[Variant, ...] | list[Variant],
        budget: Optional[Budget] = None,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
        starts: Optional[dict] = None,
    ) -> PsiResult:
        """Race ``variants`` on ``query``; first finisher wins.

        ``starts`` staggers the field (see
        :class:`~repro.psi.executors.RaceTask`); the default races
        every variant from step 0, as the paper does.
        """
        if not variants:
            raise ValueError("need at least one variant")
        race = interleaved_race(
            self.engines(query, variants, max_embeddings, count_only),
            budget=budget,
            starts=starts,
        )
        embeddings: list[dict[int, int]] = []
        if race.winner is not None and race.outcome is not None:
            rq = self.rewritten(query, race.winner.rewriting)
            embeddings = [
                rq.translate_embedding(e) for e in race.outcome.embeddings
            ]
        return PsiResult(race=race, embeddings=embeddings)
