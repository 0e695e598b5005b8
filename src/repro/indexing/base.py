"""FTV method base: filter-then-verify over a graph collection.

FTV methods (paper §2.1) answer the *decision* problem: given a dataset
of many graphs and a query, which graphs contain the query?  They work
in two stages — an offline index over path features, and online
filtering + VF2 verification.  The paper's performance metrics count
**pure sub-iso (verification) time only** ("excluding the index loading
and filtering times, which add only a trivial overhead", §3.5); this
base class follows that convention: :meth:`verify` reports only VF2
steps.

Equivalence invariants: :meth:`FTVIndex.filter` is deterministic (same
graphs + query -> same ascending candidate ids on any machine) and
per-graph (a graph's membership never depends on the rest of the
collection — the property sharded catalogs rely on); the bitset fast
path must return exactly what the seed's set algebra returns (the
oracle ``tests/test_filter_equivalence.py`` compares it with).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from ..caching import prepare_cache
from ..graphs import LabeledGraph, bits_ascending
from ..matching import Budget, GraphIndex, VF2Matcher, VF2Plan
from .features import LabelInterner, PathCensus, coded_path_census
from .trie import PathTrie

__all__ = ["FTVIndex", "VerificationReport", "FTVQueryResult"]


@dataclass
class VerificationReport:
    """Verification outcome for one (query, stored graph) pair.

    ``steps`` is the pair's execution time in engine steps — for
    multithreaded Grapes this is the *simulated parallel* time, not the
    total work.  Killed pairs are charged the budget, per the paper's
    600''-convention (see :meth:`charged_steps`).
    """

    graph_id: int
    matched: bool
    steps: int
    killed: bool
    components_tried: int = 0

    def charged_steps(self, budget: Optional[Budget]) -> int:
        """Steps to charge in metrics (budget value when killed)."""
        if self.killed and budget is not None and budget.max_steps:
            return budget.max_steps
        return self.steps


@dataclass
class FTVQueryResult:
    """Full decision-query result over the dataset."""

    candidate_ids: list[int]
    reports: list[VerificationReport] = field(default_factory=list)

    @property
    def matching_ids(self) -> list[int]:
        """IDs of graphs verified to contain the query."""
        return [r.graph_id for r in self.reports if r.matched]

    @property
    def total_steps(self) -> int:
        """Sum of per-pair verification times."""
        return sum(r.steps for r in self.reports)


class FTVIndex(ABC):
    """Shared scaffolding for Grapes and GGSX.

    Parameters
    ----------
    graphs:
        The stored dataset; graph IDs are positions in this list.
    max_path_length:
        Maximum feature path length in edges (the paper indexes paths up
        to length 4; the scaled default here is 3 — see DESIGN.md §2).
    restore:
        Dumped trie postings (``repro.store`` boot path).  When given,
        the trie is reconstructed by installing the dump's rows
        instead of running the path-census ``_build`` — O(read)
        instead of O(DFS), and bit-identical as long as ``interner``
        is the code space the rows were dumped in.
    interner:
        The label code space to index in.  A collection served as
        several indexes (catalog shards, replicas, a store restore)
        hands every one of them its single
        :class:`~repro.indexing.features.LabelInterner`, so one query
        census probes them all; labels of ``graphs`` it does not hold
        yet are appended.  Without one the index interns the sorted
        label set of ``graphs`` for itself.
    """

    method_name: str = "FTV"

    #: trie type :meth:`_build` and :meth:`_restore` instantiate
    trie_class: type = PathTrie

    def __init__(
        self,
        graphs: list[LabeledGraph],
        max_path_length: int = 3,
        restore: Optional[list] = None,
        interner: Optional[LabelInterner] = None,
    ) -> None:
        if not graphs:
            raise ValueError("empty dataset")
        if max_path_length < 1:
            raise ValueError("max_path_length must be >= 1")
        self.graphs = list(graphs)
        self.max_path_length = max_path_length
        #: graph ids removed from the live collection.  Stable-id
        #: discipline: ids are positions in ``graphs`` forever — a
        #: remove tombstones the slot (postings deleted, candidates
        #: exclude it) instead of renumbering the survivors, so shard
        #: assignments, id maps, and step bills stay valid.
        self.tombstones: set[int] = set()
        self._verifier = VF2Matcher()
        #: label code space the trie and every census speak — the
        #: collection's own when one was handed over
        if interner is None:
            interner = LabelInterner(g.labels for g in graphs)
        else:
            interner.extend(g.labels for g in graphs)
        self.interner = interner
        #: namespace token for this index's query-census memo entries
        #: in the process-wide PrepareCache (unique per index, so two
        #: indexes over the same graphs never cross-hit)
        self._census_token = object()
        if restore is None:
            self._build()
        else:
            self._restore(restore)

    # ------------------------------------------------------------------
    # offline stage
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """Construct the feature index (un-budgeted, per the paper)."""
        self.trie = self.trie_class()
        for gid, graph in enumerate(self.graphs):
            self._index_graph(gid, graph)

    def _restore(self, rows: list) -> None:
        """Rebuild the trie from dumped postings (store boot path).

        Each row is ``(coded path, {graph_id: Posting})`` — what
        :meth:`PathTrie.iter_postings` yields and
        :func:`repro.store.codec.decode_index` read back — installed
        with one :meth:`PathTrie.install` walk.  That is the **raw**
        entry on every trie class: a
        :class:`~repro.indexing.trie.SuffixTrie`'s ``insert`` expands
        suffixes, and the dump already contains every expansion —
        routing rows through it would double count.
        """
        self.trie = self.trie_class()
        install = self.trie.install
        for seq, postings in rows:
            install(seq, postings)

    def _index_graph(
        self,
        graph_id: int,
        graph: LabeledGraph,
        rows: Optional[list] = None,
    ) -> None:
        """Insert one graph's features (the incremental-add unit).

        The body of the ``_build`` loop, and what :meth:`add_graph`
        calls for a newcomer, so a mutation costs one census DFS, not a
        collection rewarm.  The census is counts only — a filter reads
        nothing else, and Grapes derives a graph's locations when its
        verifier first asks (:meth:`GrapesIndex.feature_locations
        <repro.indexing.grapes.GrapesIndex.feature_locations>`).
        ``rows`` goes to every :meth:`PathTrie.insert` as is.
        """
        census = coded_path_census(
            graph,
            self.max_path_length,
            self.interner.encode_vertices(graph.labels),
        )
        insert = self.trie.insert
        for seq, count in census.counts.items():
            insert(seq, graph_id, count, rows)

    # ------------------------------------------------------------------
    # dynamic collection (incremental index maintenance)
    # ------------------------------------------------------------------

    def live_ids(self) -> list[int]:
        """Non-tombstoned graph ids, ascending."""
        return [
            gid for gid in range(len(self.graphs))
            if gid not in self.tombstones
        ]

    def add_graph(
        self,
        graph: LabeledGraph,
        graph_id: Optional[int] = None,
        rows: Optional[list] = None,
    ) -> int:
        """Index ``graph`` incrementally; returns its stable id.

        A fresh add appends (``id == len(graphs)``); passing the id of
        a tombstoned slot *revives* it (the add→remove→re-add drill).
        Novel labels extend the interner with appended codes — probe
        keys are canonicalized in code space, so existing trie nodes
        and sealed masks stay valid.  Sealed trie nodes take the
        newcomer's postings into their tables in place (see
        :meth:`PathTrie.insert`; the few that unseal instead reseal on
        the next :meth:`warm` or lazily on first probe); memoized query
        censuses are orphaned because stale ones hold negative codes
        for now-known labels.

        ``rows`` is an output: a list passed here receives the
        newcomer's ``(coded path, Posting)`` rows — one per trie node
        it now has a posting on, the final merged postings — which is
        what the census that just ran has to say to anyone downstream
        (the shard router folds them into its sketch).  The index keeps
        no copy.
        """
        if graph_id is None:
            graph_id = len(self.graphs)
            self.graphs.append(graph)
        elif graph_id == len(self.graphs):
            self.graphs.append(graph)
        elif 0 <= graph_id < len(self.graphs):
            if graph_id not in self.tombstones:
                raise ValueError(
                    f"graph id {graph_id} is live; remove it before "
                    "re-adding"
                )
            self.graphs[graph_id] = graph
            self.tombstones.discard(graph_id)
        else:
            raise ValueError(
                f"graph id {graph_id} out of range for "
                f"{len(self.graphs)} slots"
            )
        self.interner.extend([graph.labels])
        self._index_graph(graph_id, graph, rows)
        self._invalidate_censuses()
        return graph_id

    def remove_graph(self, graph_id: int) -> int:
        """Tombstone ``graph_id``; returns the postings deleted.

        The slot (and the graph object in it) stays, so positional ids
        never shift; only the index forgets it — every posting is
        deleted and touched nodes unseal, so no filter can ever emit
        the id again.
        """
        if not 0 <= graph_id < len(self.graphs):
            raise ValueError(
                f"graph id {graph_id} out of range for "
                f"{len(self.graphs)} slots"
            )
        if graph_id in self.tombstones:
            raise ValueError(f"graph id {graph_id} already removed")
        self.tombstones.add(graph_id)
        removed = self.trie.remove_graph(graph_id)
        self._invalidate_censuses()
        return removed

    def _invalidate_censuses(self) -> None:
        """Orphan every memoized query census (collection state changed).

        Stale censuses are dangerous two ways: they hold *negative*
        codes for labels the collection may now intern, and their
        ``location_unions`` memo may include removed ids.  A fresh
        token orphans this index's prepare-cache namespace.
        """
        self._census_token = object()

    # ------------------------------------------------------------------
    # online stage
    # ------------------------------------------------------------------

    def coded_query_census(self, query: LabeledGraph) -> PathCensus:
        """The query's interned-int census, memoized on the query
        object through :data:`repro.caching.prepare_cache` (the
        graph-side memo): one census serves ``filter`` and every
        per-candidate ``relevant_components`` call on the same query,
        and Grapes hangs its ``location_unions`` on it."""
        return prepare_cache.get(
            query,
            ("ftv-census", self._census_token, self.max_path_length),
            lambda: coded_path_census(
                query,
                self.max_path_length,
                self.interner.encode_vertices(query.labels),
            ),
        )

    def filter(self, query: LabeledGraph) -> list[int]:
        """Candidate graph IDs after feature + frequency pruning.

        Census-then-probe, for a caller that holds a query and no
        census of it (the harness and the paper benches).
        """
        return self.probe(self.coded_query_census(query).counts)

    def probe(self, counts: dict) -> list[int]:
        """Candidate graph ids for a query census already taken in this
        index's code space — the filter fast path, a fold of bitwise
        ANDs.

        Each query feature contributes one threshold mask (graphs
        holding the feature often enough); masks are intersected
        rarest-first (ascending popcount) so the fold collapses to zero
        as early as possible.  Intersection is commutative, so the
        surviving set — and the ascending-bit extraction below — is
        identical to the reference set-based filter for every probe
        order, and always sorted and duplicate-free.  A served ticket
        takes its census once and probes every shard's index with it.
        """
        if not counts:
            return []
        trie_mask_ge = self.trie.mask_ge
        masks = []
        for seq, needed in counts.items():
            mask = trie_mask_ge(seq, needed)
            if not mask:
                return []
            masks.append(mask)
        masks.sort(key=int.bit_count)
        alive = masks[0]
        for mask in masks[1:]:
            alive &= mask
            if not alive:
                return []
        return list(bits_ascending(alive))

    def warm(self) -> dict:
        """Eagerly build the trie's threshold masks (catalog warmup).

        Returns size statistics so operators can see what keeping the
        posting bitsets warm costs.  Idempotent; purely a warm-start —
        lazy sealing on first probe yields identical masks.
        """
        return {
            "sealed_nodes": self.trie.seal(),
            "trie_nodes": self.trie.node_count,
            "labels": len(self.interner),
        }

    def verify_plan(self, query: LabeledGraph) -> Optional[VF2Plan]:
        """The verifier's search plan of ``query`` (see
        :meth:`repro.matching.VF2Matcher.plan`): a function of the
        query alone, so whoever verifies one query against several
        graphs builds it once and passes it to each :meth:`verify`."""
        return self._verifier.plan(query)

    @abstractmethod
    def verify(
        self,
        query: LabeledGraph,
        graph_id: int,
        budget: Optional[Budget] = None,
        plan: Optional[VF2Plan] = None,
    ) -> VerificationReport:
        """Sub-iso decision test of ``query`` against one stored graph.

        ``plan`` is the caller's shared :meth:`verify_plan` of
        ``query``; without one the verification plans for itself.
        """

    def query(
        self,
        query: LabeledGraph,
        budget: Optional[Budget] = None,
    ) -> FTVQueryResult:
        """Decision query over the whole dataset.

        Each candidate pair is verified under its own ``budget``,
        matching the paper's per-(query, graph) measurement protocol
        (§4: "we execute each individual query against a single stored
        graph at a time").
        """
        candidates = self.filter(query)
        result = FTVQueryResult(candidate_ids=candidates)
        plan = self.verify_plan(query) if candidates else None
        for gid in candidates:
            result.reports.append(self.verify(query, gid, budget, plan))
        return result

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def graph_index(self, graph_id: int) -> GraphIndex:
        """Cached per-stored-graph VF2 index.

        Memoized solely through :data:`repro.caching.prepare_cache`
        (graph-side storage): reuse shows up in the cache's hit
        counters instead of being swallowed by a private dict, and a
        ``remove_graph`` that drops the graph's memo entries actually
        frees the index instead of leaving a shadow copy here.
        """
        return self._verifier.prepare(self.graphs[graph_id])
