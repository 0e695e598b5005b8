"""Warm dataset entries: one stored graph collection held ready to race.

The experiment harness rebuilds graphs and matcher indexes per run;
a serving layer cannot.  :func:`warm_entry` builds **one** warm
:class:`DatasetEntry` over a list of graphs: it prepares the
per-algorithm matcher indexes up front, builds the served FTV filter
(:data:`~repro.service.planner.SERVED_FTV_METHOD`) for collection
datasets, and freezes the graphs
(mutation after load invalidates every prepared index, so it is
checked, not trusted).  :meth:`DatasetEntry.memory_report` says what
keeping it warm costs.

Entries wrap:

* NFV datasets (yeast/human/wordnet): one stored graph + a
  :class:`repro.psi.PsiNFV` whose matcher indexes are pre-built;
* FTV datasets (ppi/synthetic): the graph collection + its filter
  index and a warm VF2 verifier per stored graph.

The one catalog is :class:`repro.service.sharding.ShardedCatalog`: a
served collection is N >= 1 shards, and each shard's partition is one
entry in ``ShardedCatalog.partitions[shard]``, which every replica of
the shard races over.  The catalog is also what names, loads,
configures, mutates and persists a dataset; an entry only warms and
patches itself (:meth:`DatasetEntry.add_graph`,
:meth:`DatasetEntry.remove_graph`).  :class:`DatasetCatalog` is a
one-shard view of it, for callers that hold a whole dataset warm
outside any service.

Invariant: warming is deterministic — the same graphs and
configuration always produce the same frozen entry, so serving results
never depend on catalog history.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from ..graphs import LabeledGraph
from ..indexing import FTV_INDEX_CLASSES, FTVIndex, LabelInterner
from ..psi import PsiNFV
from ..rewriting import LabelStats
from .planner import (
    SERVED_ALGORITHMS, SERVED_FTV_METHOD, SERVED_PATH_LENGTH,
)

__all__ = [
    "DatasetEntry",
    "DatasetCatalog",
    "approx_deep_bytes",
    "warm_entry",
]


def approx_deep_bytes(obj: object, max_objects: int = 500_000) -> int:
    """Approximate deep ``sys.getsizeof`` of ``obj``.

    Traverses containers and ``__dict__``/``__slots__`` with cycle
    detection, stopping after ``max_objects`` nodes (returning the
    partial sum).  Good enough for capacity accounting; not an exact
    allocator report.
    """
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack and len(seen) < max_objects:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        try:
            total += sys.getsizeof(cur)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(cur, dict):
            stack.extend(cur.keys())
            stack.extend(cur.values())
        elif isinstance(cur, (list, tuple, set, frozenset)):
            stack.extend(cur)
        else:
            d = getattr(cur, "__dict__", None)
            if d is not None:
                stack.append(d)
            for slot in getattr(type(cur), "__slots__", ()) or ():
                if hasattr(cur, slot):
                    stack.append(getattr(cur, slot))
    return total


@dataclass
class DatasetEntry:
    """One shard's warm partition of a dataset and everything prepared
    for it (:func:`warm_entry` builds it)."""

    name: str
    scale: str
    kind: str  # "nfv" | "ftv"
    graphs: list[LabeledGraph]
    psi: Optional[PsiNFV] = None
    ftv_index: Optional[FTVIndex] = None
    stats: Optional[LabelStats] = None
    #: (order, size) checksums taken at load time (freeze witness)
    _shape: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    #: (graph bytes, FTV index bytes, trie nodes) of the frozen state;
    #: None until a :meth:`memory_report` asks, and again after every
    #: freeze
    _frozen_sizes: Optional[tuple[int, int, int]] = None

    def freeze(self) -> None:
        """Record the loaded graphs' shapes as the frozen baseline.

        Shapes only: the graph/FTV-index byte estimates and the trie
        node count of the state frozen here are *invalidated*, not
        taken — loads, store boots and mutation acks never pay the
        accounting walk or the prefix count; the next
        :meth:`memory_report` does.
        """
        self._shape = tuple((g.order, g.size) for g in self.graphs)
        self._frozen_sizes = None

    def verify_frozen(self) -> None:
        """Raise if any graph mutated since :meth:`freeze`.

        Mutation resets the graph-side index memo, so serving would
        silently re-index per query — a correctness-of-accounting bug
        the catalog turns into a loud error.
        """
        now = tuple((g.order, g.size) for g in self.graphs)
        if now != self._shape:
            raise RuntimeError(
                f"dataset {self.name!r} mutated after load; "
                "reload it through the catalog"
            )

    # ------------------------------------------------------------------
    # dynamic collections (incremental index maintenance)
    # ------------------------------------------------------------------

    def add_graph(self, graph: LabeledGraph, graph_id: int) -> None:
        """Add ``graph`` to this FTV collection at slot ``graph_id``.

        Incremental maintenance, not a rewarm: the newcomer's census is
        inserted into the existing posting map (each path it posts to
        drops its threshold table until the next probe rebuilds it),
        novel labels extend the interner with appended codes, and
        memoized query censuses are orphaned.  ``graph_id`` is the
        append slot or a tombstoned slot to revive (journal replay and
        the add→remove→re-add drill).
        """
        gid = self.ftv_index.add_graph(graph, graph_id)
        if gid == len(self.graphs):
            self.graphs.append(graph)
        else:
            self.graphs[gid] = graph
        self._refresh_after_mutation()

    def remove_graph(self, graph_id: int) -> None:
        """Tombstone ``graph_id`` in this FTV collection.

        The slot keeps its position (stable ids — shard assignments and
        id maps never shift); the index forgets every posting, and the
        graph's prepared-index memos are dropped through the prepare
        cache so the removal shows up in eviction counters.
        """
        self.remove_graphs((graph_id,))

    def remove_graphs(self, graph_ids) -> None:
        """Tombstone every id of ``graph_ids`` as :meth:`remove_graph`
        does, with one pass over the postings and one refresh of the
        label stats and the freeze for all of them."""
        from ..caching import prepare_cache

        graph_ids = list(graph_ids)
        self.ftv_index.remove_graphs(graph_ids)
        for graph_id in graph_ids:
            prepare_cache.evict_graph(self.graphs[graph_id])
        self._refresh_after_mutation()

    def _refresh_after_mutation(self) -> None:
        """Re-derive the entry's collection-level state after a mutation.

        Label stats cover the live graphs only, and the freeze witness
        is re-taken (a slot's shape may have changed).  Nothing is
        sealed: the tables the mutation dropped are rebuilt by the
        probes that want them.
        """
        live = [self.graphs[g] for g in self.ftv_index.live_ids()]
        if live:
            self.stats = LabelStats.of_collection(live)
        self.freeze()

    def memory_report(self) -> dict:
        """Approximate bytes held by graphs and prepared indexes.

        The frozen parts (graphs, FTV index, its trie node count) are
        walked by the first report after a :meth:`freeze` and memoised
        until the next one — frozen data never changes, so a stats
        poll must not re-walk it (the FTV index's bytes count the
        threshold tables probes had built by then); only the per-graph
        index memos, which can still grow as new matchers prepare, are
        re-walked every time.  ``ftv_warm`` says how much of the filter index traffic
        has touched: ``sealed_paths`` of its ``paths`` hold a threshold
        table, read as the report is taken.
        """
        index = self.ftv_index
        if self._frozen_sizes is None:
            self._frozen_sizes = (
                sum(approx_deep_bytes(g.kernel()) for g in self.graphs),
                approx_deep_bytes(index) if index is not None else 0,
                index.trie.node_count if index is not None else 0,
            )
        graph_bytes, ftv_bytes, trie_nodes = self._frozen_sizes
        index_bytes = 0
        index_entries = 0
        for g in self.graphs:
            memo = g._index_memo
            if memo:
                index_entries += len(memo)
                index_bytes += approx_deep_bytes(memo)
        report = {
            "graphs": len(self.graphs),
            "vertices": sum(g.order for g in self.graphs),
            "edges": sum(g.size for g in self.graphs),
            "graph_bytes": graph_bytes,
            "prepared_indexes": index_entries,
            "index_bytes": index_bytes,
            "ftv_index_bytes": ftv_bytes,
            "total_bytes": graph_bytes + index_bytes + ftv_bytes,
        }
        if index is not None:
            report["ftv_warm"] = {
                "paths": len(index.trie.postings),
                "sealed_paths": len(index.trie.tables),
                "trie_nodes": trie_nodes,
                "labels": len(index.interner),
            }
        return report




def warm_entry(
    name: str,
    graphs: list[LabeledGraph],
    kind: str,
    scale: str,
    algorithms: tuple[str, ...],
    prebuilt_index: Optional[FTVIndex] = None,
    interner: Optional[LabelInterner] = None,
) -> DatasetEntry:
    """Build, warm and freeze one entry over ``graphs``: an NFV entry
    prepares each of ``algorithms``' matcher indexes, an FTV entry
    builds the served filter over paths of up to
    :data:`~repro.service.planner.SERVED_PATH_LENGTH` edges.

    ``prebuilt_index`` is the store-boot shortcut: an FTV index
    already reconstructed from disk skips the census build and is
    frozen exactly like a fresh one.
    ``interner`` is the label code space of the collection ``graphs``
    is a partition of: an index built here is built in it
    (``prebuilt_index`` already was), so every partition answers one
    query census.
    """
    if kind == "nfv":
        psi = PsiNFV(graphs[0])
        for alg in algorithms:
            psi.prepared(alg)  # warm the matcher indexes now
        entry = DatasetEntry(
            name=name,
            scale=scale,
            kind="nfv",
            graphs=graphs,
            psi=psi,
            stats=psi.stats,
        )
    else:
        index = prebuilt_index
        if index is None:
            index = FTV_INDEX_CLASSES[SERVED_FTV_METHOD](
                graphs,
                max_path_length=SERVED_PATH_LENGTH,
                interner=interner,
            )
        # nothing is sealed: each probe seals the paths it asks about
        entry = DatasetEntry(
            name=name,
            scale=scale,
            kind="ftv",
            graphs=graphs,
            ftv_index=index,
            stats=LabelStats.of_collection(graphs),
        )
    entry.freeze()
    return entry


class DatasetCatalog:
    """One whole dataset warm outside any service: a view of a
    one-shard :class:`~repro.service.sharding.ShardedCatalog`
    (:attr:`sharded`), which does the loading, checking and mutating;
    ``StoreWriter.write_catalog`` writes the catalog it wraps."""

    def __init__(self) -> None:
        from .sharding import ShardedCatalog  # deferred: it imports us

        self.sharded = ShardedCatalog(num_shards=1)

    def load(
        self,
        name: str,
        scale: str = "default",
        algorithms: tuple[str, ...] = SERVED_ALGORITHMS,
    ) -> DatasetEntry:
        """:meth:`ShardedCatalog.load`; returns the one shard's entry."""
        self.sharded.load(name, scale=scale, algorithms=algorithms)
        return self.sharded.shard_entry(name, 0)

    def add_graph(self, name: str, graph: LabeledGraph) -> int:
        """Append ``graph`` to collection ``name``; its stable id."""
        return self.sharded.add_graph(name, graph, shard=0)

    def remove_graph(self, name: str, graph_id: int) -> None:
        """Tombstone ``graph_id`` of collection ``name``."""
        self.sharded.remove_graph(name, graph_id)
