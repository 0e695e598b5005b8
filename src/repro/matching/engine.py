"""Matcher engine framework: steppable search, budgets, outcomes.

Why steppable engines
---------------------

The paper measures wall-clock time on native (C/C++/Java) matchers and
races OS threads.  In CPython, CPU-bound threads do not run in parallel
(the GIL), so a faithful *mechanical* port would measure noise.  Instead,
every matcher in this package is written as a **generator** that yields
control after each unit of search work (one candidate-pair probe /
search-state expansion).  "Execution time" is the number of steps
consumed — deterministic, machine-independent, and proportional to the
real work the original implementations do.

This buys the reproduction three things:

* the paper's 10-minute kill cap becomes a *step budget* (`Budget`),
  enforced exactly;
* the Ψ-framework race "first thread to finish wins, the rest are
  killed" becomes round-robin interleaving of N engines, with exact and
  reproducible outcomes (:mod:`repro.psi.executors`);
* isomorphic-query variance is preserved, because search order — the
  thing node-ID permutations perturb — is what determines step counts.

Wall-clock budgets (`timeout_s`) are also supported for users who want
real-time caps on top.

Batched stepping
----------------

Yielding once per probe makes step accounting exact but pays one
generator suspension per unit of work.  Engines may therefore yield an
``int`` meaning "a batch of N steps just happened" (a bare ``yield`` /
``yield None`` still means one step).  :func:`drive` and the race
executors in :mod:`repro.psi.executors` sum batches, so **total step
counts are bit-for-bit identical** to one-yield-per-step execution;
only the suspension granularity changes.  Killed attempts are clamped
to the budget value, which is also exactly what unbatched execution
reports.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Generator, Mapping
from dataclasses import dataclass, field
from typing import Optional

from ..graphs import LabeledGraph

__all__ = [
    "Budget",
    "MatchOutcome",
    "GraphIndex",
    "Matcher",
    "SearchEngine",
    "drive",
    "label_masks",
    "DEFAULT_MAX_EMBEDDINGS",
]

# Paper §3.2: "the number of searched embeddings ... is capped at 1000".
DEFAULT_MAX_EMBEDDINGS = 1000

Embedding = dict[int, int]
# engines yield None (one step) or an int batch of steps
SearchEngine = Generator[Optional[int], None, "MatchOutcome"]


@dataclass(frozen=True)
class Budget:
    """A kill cap for one matching attempt.

    ``max_steps`` is the primary currency (see module docstring);
    ``timeout_s`` optionally adds a wall-clock cap, checked every
    ``check_every`` steps to keep overhead negligible.

    The paper's setup corresponds to ``Budget(max_steps=BUDGET)`` with the
    10-minute cap mapped onto steps; killed attempts are *charged* the
    budget value, mirroring the paper's convention of using 600'' as the
    execution time of killed queries.
    """

    max_steps: Optional[int] = None
    timeout_s: Optional[float] = None
    check_every: int = 1024

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    @classmethod
    def unlimited(cls) -> "Budget":
        """No cap (small graphs / tests)."""
        return cls()


@dataclass
class MatchOutcome:
    """Result of one matching/decision attempt.

    Attributes
    ----------
    found:
        Whether at least one embedding exists (the decision answer).
    embeddings:
        Collected embeddings (query vertex -> graph vertex), up to the
        requested maximum; empty when ``count_only``.
    num_embeddings:
        Number of embeddings found (== len(embeddings) unless
        ``count_only``).
    steps:
        Search steps consumed — the reproduction's execution time.
    killed:
        True when the budget expired before the search finished.
    exhausted:
        True when the search space was fully explored (or the embedding
        cap was reached).  ``killed`` and ``exhausted`` are mutually
        exclusive.
    algorithm:
        Name of the matcher that produced this outcome.
    """

    found: bool = False
    embeddings: list[Embedding] = field(default_factory=list)
    num_embeddings: int = 0
    steps: int = 0
    killed: bool = False
    exhausted: bool = False
    algorithm: str = ""

    def charged_steps(self, budget: Optional[Budget]) -> int:
        """Steps to charge in metrics: budget value when killed.

        Mirrors the paper's §3.5 convention: "for queries that were killed
        at the 10' limit we use this time (i.e., 600'') as their minimum
        execution time".
        """
        if self.killed and budget is not None and budget.max_steps:
            return budget.max_steps
        return self.steps


class GraphIndex:
    """Per-stored-graph precomputations shared by every NFV matcher.

    This corresponds to the "indexing phase" the paper describes for the
    NFV methods: vertex label lists, label/edge frequencies, degrees.
    Matcher-specific indexes (GraphQL signatures, sPath distance
    structures, QuickSI inner supports) build on top of it in each
    matcher's ``prepare``.  Index construction is *not* budgeted, exactly
    as the paper exempts indexing from the 10' cap.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph
        kern = graph.kernel()
        # the kernel's label buckets ARE the vertex label lists (one
        # pass, shared with every other index of the same graph)
        self.label_index: dict[object, tuple[int, ...]] = dict(
            kern.label_buckets
        )
        self.label_frequencies = {
            lab: len(vs) for lab, vs in self.label_index.items()
        }
        # the same lists as bitmasks over vertex IDs: a candidate pool
        # is an AND against these (VF2, GraphQL, sPath)
        self.label_masks: dict[object, int] = label_masks(self.label_index)
        self.degrees = tuple(len(nbrs) for nbrs in kern.neighbors)
        # fast-path aliases used by the matcher inner loops
        self.adjacency = kern.neighbors
        self.adj_masks = kern.adj_masks
        self.labels = kern.labels
        self.label_codes = kern.label_codes
        self.code_of = kern.code_of
        # frequency of unordered label pairs over edges — QuickSI's edge
        # frequency statistic
        labels = kern.labels
        edge_freq: dict[tuple, int] = {}
        for u, v in graph.edges():
            key = _label_pair(labels[u], labels[v])
            edge_freq[key] = edge_freq.get(key, 0) + 1
        self.edge_label_frequencies = edge_freq

    def candidates_by_label(self, label: object) -> tuple[int, ...]:
        """Stored-graph vertices with ``label`` in ascending ID order."""
        return self.label_index.get(label, ())

    def edge_frequency(self, label_a: object, label_b: object) -> int:
        """Number of stored edges joining the two labels."""
        return self.edge_label_frequencies.get(
            _label_pair(label_a, label_b), 0
        )


def label_masks(label_index: Mapping[object, tuple[int, ...]]) -> dict:
    """Vertex label lists as bitmasks: label -> its vertices."""
    return {
        lab: sum(1 << v for v in vs) for lab, vs in label_index.items()
    }


def _label_pair(a: object, b: object) -> tuple:
    """Canonical unordered label pair key."""
    ra, rb = repr(a), repr(b)
    return (a, b) if ra <= rb else (b, a)


class Matcher(ABC):
    """Base class for subgraph-isomorphism matchers (NFV methods + VF2).

    Subclasses implement :meth:`engine` as a generator yielding once per
    search step.  :meth:`run` is the convenience entry point that drives
    the generator under a :class:`Budget`.
    """

    #: Short algorithm name used in reports ("VF2", "GQL", "SPA", "QSI").
    name: str = "matcher"

    def prepare(self, graph: LabeledGraph, cache: bool = True) -> GraphIndex:
        """The per-stored-graph index (un-budgeted, reusable).

        Memoized per stored graph through
        :data:`repro.caching.prepare_cache`, so repeated runs and races
        against the same graph stop re-indexing.  Pass ``cache=False``
        to force a fresh build.
        """
        if not cache:
            return self._build_index(graph)
        from ..caching import prepare_cache

        return prepare_cache.get(
            graph, self.prepare_key(), lambda: self._build_index(graph)
        )

    def prepare_key(self) -> tuple:
        """Memoization key: matcher configs that share an index share it.

        Keyed on the ``_build_index`` implementation, so every matcher
        that builds a plain :class:`GraphIndex` (VF2, QuickSI, Ullmann,
        TurboISO, the reference oracle) shares one index per stored
        graph, while matchers with their own index type (GraphQL,
        sPath) stay distinct — by module as well as by name, so a
        same-named class elsewhere (a test oracle, a plug-in) is never
        handed an index of the wrong type.
        """
        build = type(self)._build_index
        return (build.__module__, build.__qualname__)

    def _build_index(self, graph: LabeledGraph) -> GraphIndex:
        """Actually construct the index (subclass hook)."""
        return GraphIndex(graph)

    @abstractmethod
    def engine(
        self,
        index: GraphIndex,
        query: LabeledGraph,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> SearchEngine:
        """Steppable search over ``index.graph`` for ``query``.

        Yields after each unit of work; returns a :class:`MatchOutcome`
        (with ``steps`` unset — the driver fills it in).

        The four arguments above are the whole contract.  A subclass
        may add optional keyword arguments that narrow or pre-compute
        the same search and never change its answer — VF2 takes
        ``root_candidates`` (a slice of level 0's candidate pool) and
        ``plan`` (the per-query search plan a sweep shares between
        engines); callers that hold a plain :class:`Matcher` pass
        neither.  The *sequence* of yielded batches, not just their
        sum, is observable (a race charges a round what it actually
        advanced), so a rewrite of an engine must keep it: VF2,
        GraphQL and sPath are held, yield for yield, to the recursive
        engines they replaced, kept as test oracles in
        ``tests/_vf2_recursive.py`` and ``tests/_nfv_recursive.py``.
        """

    def run(
        self,
        graph_or_index: LabeledGraph | GraphIndex,
        query: LabeledGraph,
        budget: Optional[Budget] = None,
        max_embeddings: int = DEFAULT_MAX_EMBEDDINGS,
        count_only: bool = False,
    ) -> MatchOutcome:
        """Run the matcher to completion or budget exhaustion."""
        index = (
            graph_or_index
            if isinstance(graph_or_index, GraphIndex)
            else self.prepare(graph_or_index)
        )
        gen = self.engine(
            index, query, max_embeddings=max_embeddings,
            count_only=count_only,
        )
        outcome = drive(gen, budget)
        outcome.algorithm = self.name
        return outcome

    def decide(
        self,
        graph_or_index: LabeledGraph | GraphIndex,
        query: LabeledGraph,
        budget: Optional[Budget] = None,
    ) -> MatchOutcome:
        """Decision-problem entry point: stop at the first embedding.

        This is the FTV verification semantics (the paper modified Grapes'
        VF2 to "return after the first match").
        """
        return self.run(
            graph_or_index, query, budget=budget, max_embeddings=1,
        )


def drive(gen: SearchEngine, budget: Optional[Budget] = None) -> MatchOutcome:
    """Drive a search engine to completion under ``budget``.

    Returns the engine's outcome with ``steps`` filled in; if the budget
    expires first, the engine is closed and a ``killed`` outcome carrying
    the budget's step count is returned.

    Engines may yield ``None`` (one step) or an int batch of steps; a
    batch that crosses ``max_steps`` kills the attempt at exactly the
    budget value, matching unbatched accounting.
    """
    steps = 0
    max_steps = budget.max_steps if budget else None
    timeout_s = budget.timeout_s if budget else None
    check_every = budget.check_every if budget else 1024
    deadline = (time.monotonic() + timeout_s) if timeout_s else None
    next_check = check_every
    try:
        while True:
            try:
                inc = next(gen)
            except StopIteration as stop:
                outcome = stop.value
                if outcome is None:  # pragma: no cover - defensive
                    outcome = MatchOutcome()
                outcome.steps = steps
                return outcome
            steps += 1 if inc is None else inc
            if max_steps is not None and steps >= max_steps:
                steps = max_steps
                break
            if deadline is not None and steps >= next_check:
                next_check = steps + check_every
                if time.monotonic() > deadline:
                    break
    finally:
        gen.close()
    return MatchOutcome(found=False, steps=steps, killed=True)
