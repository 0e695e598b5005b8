"""Grapes FTV index (Giugno et al., PLoS One 2013).

Per the paper's §3.1.1:

* paths up to a maximum length are found by DFS and indexed in a
  **trie**;
* unlike GGSX, Grapes additionally maintains **location information**
  (which vertices each feature touches in each stored graph) — here
  derived per stored graph the first time the verifier asks about it
  (:meth:`GrapesIndex.feature_locations`), never computed by a build,
  an add or a restore, none of which has a reader for it;
* at query time the query's paths prune the trie, the surviving
  candidate set is further pruned by **feature frequencies**, and then
  Grapes uses the location information to extract the *relevant
  connected components* of each candidate graph — VF2 verification runs
  against those (typically much smaller) components instead of the
  whole graph;
* Grapes is multithreaded; the paper runs it with 1 and 4 threads
  (Grapes/1, Grapes/4).

The verification step follows the paper's modification: VF2 returns
after the *first* match (decision semantics).  Multithreading is
simulated deterministically over step costs (components are
list-scheduled onto ``threads`` workers with first-match early
termination) — see :mod:`repro.scheduling`.

Determinism/equivalence: filtering is a per-graph predicate (candidate
membership never depends on the rest of the collection, which is what
lets a catalog shard's Grapes index agree with the global one), the
trie's bitset fast path must match the seed filter bit-for-bit (the
oracle ``tests/test_filter_equivalence.py`` holds it to),
and per-graph feature-location unions are isomorphism invariants safe
to memoize per canonical query form.
"""

from __future__ import annotations

from typing import Optional

from ..graphs import LabeledGraph
from ..matching import Budget, GraphIndex, VF2Plan, drive
from ..metrics import CostRecord
from ..scheduling import first_match_schedule
from .base import FTVIndex, VerificationReport
from .features import LabelInterner, coded_path_census, location_vertices
from .trie import PathTrie

__all__ = ["GrapesIndex", "DEFAULT_ROOT_SLICES"]

#: Work-chunk granularity of the multithreaded verification: each
#: relevant component's root-candidate set is split into this many
#: contiguous slices (Grapes/4 schedules them over 4 workers; Grapes/1
#: runs them in sequence, which is exactly single-threaded VF2).
DEFAULT_ROOT_SLICES = 4


class GrapesIndex(FTVIndex):
    """Grapes: path trie with location info, component-wise verification.

    Parameters
    ----------
    graphs, max_path_length, restore, interner:
        See :class:`FTVIndex`.
    threads:
        Simulated verification threads (paper: Grapes/1 and Grapes/4).
    """

    trie_class = PathTrie

    def __init__(
        self,
        graphs: list[LabeledGraph],
        max_path_length: int = 3,
        threads: int = 1,
        restore: Optional[list] = None,
        interner: Optional[LabelInterner] = None,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads
        super().__init__(
            graphs, max_path_length, restore=restore, interner=interner
        )
        self.method_name = f"Grapes/{threads}"

    def with_threads(self, threads: int) -> "GrapesIndex":
        """A view of this index running with a different thread count.

        The trie and graph caches are shared (index construction is the
        expensive part); only the verification parallelism changes.
        Lets experiments compare Grapes/1 and Grapes/4 without building
        the index twice.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        clone = object.__new__(GrapesIndex)
        clone.__dict__.update(self.__dict__)
        clone.threads = threads
        clone.method_name = f"Grapes/{threads}"
        return clone

    # ------------------------------------------------------------------
    # online stage
    # ------------------------------------------------------------------

    def feature_locations(
        self, query: LabeledGraph, graph_id: int
    ) -> int:
        """Union of the query features' locations in one stored graph,
        as a vertex bitmask.

        The one reader of location information, and so the one place
        that derives it: the first time a stored graph is asked about,
        a single with-locations census of it hands its masks to the
        trie (:meth:`PathTrie.locate`; they leave with its postings on
        a remove).  The union is memoized on the query census, so
        isomorphic repeats pay nothing.
        """
        if graph_id in self.tombstones:
            return 0
        census = self.coded_query_census(query)
        unions = census.location_unions
        if unions is None:
            unions = census.location_unions = {}
        union = unions.get(graph_id)
        if union is None:
            masks = self.trie.locations.get(graph_id)
            if masks is None:
                graph = self.graphs[graph_id]
                masks = self.trie.locate(graph_id, coded_path_census(
                    graph,
                    self.max_path_length,
                    self.interner.encode_vertices(graph.labels),
                    with_locations=True,
                ).locations)
            union = 0
            for seq in census.counts:
                union |= masks.get(seq, 0)
            unions[graph_id] = union
        return union

    def relevant_components(
        self, query: LabeledGraph, graph_id: int
    ) -> list[tuple[LabeledGraph, dict[int, int]]]:
        """Connected components of the candidate graph induced on the
        union of the query features' locations.

        Components that cannot possibly host the query (too few
        vertices, or missing some required label multiplicity) are
        dropped before verification.  Ordered by ascending component
        size, smallest-ID first — the cheap-first deterministic order.
        """
        vertices = self.feature_locations(query, graph_id)
        if not vertices:
            return []
        graph = self.graphs[graph_id]
        region, mapping = graph.induced_subgraph(
            location_vertices(vertices)
        )
        need: dict[object, int] = {}
        for u in query.vertices():
            lab = query.label(u)
            need[lab] = need.get(lab, 0) + 1
        components: list[tuple[LabeledGraph, dict[int, int]]] = []
        inverse = {new: old for old, new in mapping.items()}
        for comp in region.connected_components():
            if len(comp) < query.order:
                continue
            sub, sub_map = region.induced_subgraph(comp)
            have: dict[object, int] = {}
            for v in sub.vertices():
                lab = sub.label(v)
                have[lab] = have.get(lab, 0) + 1
            if any(have.get(lab, 0) < k for lab, k in need.items()):
                continue
            # remap to original stored-graph IDs for reporting
            back = {
                new: inverse[old] for old, new in sub_map.items()
            }
            components.append((sub, back))
        components.sort(key=lambda item: (item[0].order, min(item[1].values())))
        return components

    @staticmethod
    def root_slices(
        comp_index: GraphIndex,
        query: LabeledGraph,
        num_slices: int = DEFAULT_ROOT_SLICES,
    ) -> list[tuple[int, ...]]:
        """Partition a component's VF2 root candidates into work chunks.

        Grapes' multithreaded verification distributes the candidate
        start vertices of the query's first vertex across its threads.
        Slices are contiguous ID ranges, so running them in sequence
        reproduces exactly the single-threaded VF2 visit order (and step
        count), while scheduling them over T workers models Grapes/T.
        """
        roots = comp_index.candidates_by_label(query.label(0))
        if not roots:
            return []
        num_slices = max(1, min(num_slices, len(roots)))
        size, extra = divmod(len(roots), num_slices)
        slices = []
        start = 0
        for i in range(num_slices):
            end = start + size + (1 if i < extra else 0)
            slices.append(tuple(roots[start:end]))
            start = end
        return [s for s in slices if s]

    def verification_tasks(
        self,
        query: LabeledGraph,
        graph_id: int,
        plan: Optional[VF2Plan] = None,
    ):
        """Work chunks for one (query, graph) verification.

        Returns a list of callables ``task(allowance) -> CostRecord``,
        one per (relevant component, root slice); scheduling them over
        ``threads`` workers with first-match early termination is the
        Grapes/T verification.  Exposed so harnesses can share chunk
        costs between thread counts.  Every chunk (and every re-run of
        one under a larger allowance) searches by one plan: the
        caller's, or one built here.
        """
        components = self.relevant_components(query, graph_id)
        if components and plan is None:
            plan = self.verify_plan(query)
        tasks = []
        for sub, _ in components:
            comp_index = GraphIndex(sub)
            for roots in self.root_slices(comp_index, query):
                tasks.append(
                    self._make_task(comp_index, query, roots, plan)
                )
        return tasks

    def _make_task(
        self,
        comp_index: GraphIndex,
        query: LabeledGraph,
        roots: tuple[int, ...],
        plan: Optional[VF2Plan],
    ):
        verifier = self._verifier

        def run(allowance: int) -> CostRecord:
            gen = verifier.engine(
                comp_index, query, max_embeddings=1,
                root_candidates=roots, plan=plan,
            )
            outcome = drive(gen, Budget(max_steps=max(1, allowance)))
            return CostRecord(
                steps=outcome.steps,
                found=outcome.found,
                killed=outcome.killed,
            )

        return run

    def verify(
        self,
        query: LabeledGraph,
        graph_id: int,
        budget: Optional[Budget] = None,
        plan: Optional[VF2Plan] = None,
    ) -> VerificationReport:
        """Decision test over the relevant components, ``threads``-wide.

        Execution time is the simulated parallel schedule time of the
        (component, root-slice) work chunks (first-match early
        termination); with ``threads=1`` this is exactly the sequential
        VF2 cost over the components in order.
        """
        tasks = self.verification_tasks(query, graph_id, plan)
        if not tasks:
            return VerificationReport(
                graph_id=graph_id, matched=False, steps=0, killed=False,
                components_tried=0,
            )
        cap = budget.max_steps if budget and budget.max_steps else None
        schedule = first_match_schedule(
            tasks, workers=self.threads, budget_steps=cap
        )
        return VerificationReport(
            graph_id=graph_id,
            matched=schedule.found,
            steps=schedule.time,
            killed=schedule.killed,
            components_tried=schedule.executed,
        )
