"""Dataset catalog: load named graph collections once, keep them warm.

The experiment harness rebuilds graphs and matcher indexes per run;
a serving layer cannot.  The catalog loads a named dataset **once**,
freezes it (mutation after load invalidates every prepared index, so it
is checked, not trusted), prepares the per-algorithm matcher indexes
up front, builds the FTV filter (Grapes/GGSX) for collection datasets,
and reports an approximate memory footprint so operators can see what
keeping a dataset warm costs.

Entries wrap:

* NFV datasets (yeast/human/wordnet): one stored graph + a
  :class:`repro.psi.PsiNFV` whose matcher indexes are pre-built;
* FTV datasets (ppi/synthetic): the graph collection + a Grapes (or
  GGSX) filter index and a warm VF2 verifier per stored graph.

A :class:`DatasetCatalog` is what backs **one replica pool of one
shard**: a served collection is always N >= 1 shards
(:class:`repro.service.sharding.ShardedCatalog` — the catalog a
:class:`~repro.service.Service` owns, and the one that boots from and
checkpoints to a store), and each shard's partition lives in a
``DatasetCatalog`` through :meth:`DatasetCatalog.register` (a pre-built
list of graphs under any name) or :meth:`~DatasetCatalog.adopt` (a
sibling replica's frozen entry).  On its own it is also the plain way
to hold a whole dataset warm outside any service — the oracle the tests
and the ledger compare a service against.  Registered entries are
warmed and frozen exactly like loaded ones.  A catalog holds what it
was told to load until it is told to :meth:`~DatasetCatalog.unload` it:
nothing is evicted behind the caller's back.

Invariant: loading/registering is deterministic — the same name, scale,
and configuration always produce the same frozen graphs and warm
indexes, so serving results never depend on catalog history.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from ..graphs import LabeledGraph
from ..harness import (
    FTV_DATASETS,
    NFV_DATASETS,
    build_ftv_graphs,
    build_nfv_graph,
)
from ..indexing import FTV_INDEX_CLASSES, FTVIndex, LabelInterner
from ..psi import PsiNFV
from ..rewriting import LabelStats

__all__ = ["DatasetEntry", "DatasetCatalog", "approx_deep_bytes"]


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
    """One warm dataset and everything prepared for it."""

    name: str
    scale: str
    kind: str  # "nfv" | "ftv"
    graphs: list[LabeledGraph]
    psi: Optional[PsiNFV] = None
    ftv_index: Optional[FTVIndex] = None
    stats: Optional[LabelStats] = None
    prepared_algorithms: tuple[str, ...] = ()
    #: full load configuration (re-load compatibility witness)
    load_config: tuple = ()
    #: FTVIndex.warm() statistics (sealed posting-mask nodes etc.)
    warm_stats: dict = field(default_factory=dict)
    #: (order, size) checksums taken at load time (freeze witness)
    _shape: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    #: (graph bytes, FTV index bytes) of the frozen state; None until
    #: a :meth:`memory_report` asks, and again after every freeze
    _frozen_bytes: Optional[tuple[int, int]] = None

    @property
    def graph(self) -> LabeledGraph:
        """The stored graph of an NFV entry."""
        if self.kind != "nfv":
            raise ValueError(f"dataset {self.name!r} is a collection")
        return self.graphs[0]

    def freeze(self) -> None:
        """Record the loaded graphs' shapes as the frozen baseline.

        Shapes only: the graph/FTV-index byte estimates of the state
        frozen here are *invalidated*, not taken — loads, store boots
        and mutation acks never pay the accounting walk; the next
        :meth:`memory_report` does.
        """
        self._shape = tuple((g.order, g.size) for g in self.graphs)
        self._frozen_bytes = None

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

    @property
    def tombstones(self) -> set:
        """Removed (tombstoned) graph ids — stable ids never renumber."""
        if self.ftv_index is None:
            return set()
        return self.ftv_index.tombstones

    def live_graph_ids(self) -> list:
        """Non-tombstoned graph ids, ascending."""
        if self.ftv_index is None:
            return list(range(len(self.graphs)))
        return self.ftv_index.live_ids()

    def memory_report(self) -> dict:
        """Approximate bytes held by graphs and prepared indexes.

        The frozen parts (graphs, FTV index) are walked by the first
        report after a :meth:`freeze` and memoised until the next one —
        frozen data never changes, so a stats poll must not re-walk
        it; only the per-graph index memos, which can still grow as
        new matchers prepare, are re-walked every time.
        """
        if self._frozen_bytes is None:
            self._frozen_bytes = (
                sum(approx_deep_bytes(g.kernel()) for g in self.graphs),
                approx_deep_bytes(self.ftv_index)
                if self.ftv_index is not None
                else 0,
            )
        graph_bytes, ftv_bytes = self._frozen_bytes
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
        if self.ftv_index is not None:
            report["ftv_warm"] = dict(self.warm_stats)
        return report


class DatasetCatalog:
    """Named, load-once registry of warm datasets."""

    def __init__(self) -> None:
        self._entries: dict[str, DatasetEntry] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def load(
        self,
        name: str,
        scale: str = "default",
        algorithms: tuple[str, ...] = ("GQL", "SPA"),
        ftv_method: str = "Grapes",
        max_path_length: int = 3,
    ) -> DatasetEntry:
        """Load ``name`` and warm its indexes (idempotent per name).

        Re-loading a loaded dataset with the *same configuration*
        returns the existing entry — the whole point of the catalog is
        to never build twice.  A re-load with a different scale,
        algorithm roster, or FTV method raises: silently answering
        from the old configuration would corrupt results; call
        :meth:`unload` first if the change is intended.
        """
        config = (scale, tuple(algorithms), ftv_method, max_path_length)
        existing = self._existing(name, config)
        if existing is not None:
            return existing
        if name in NFV_DATASETS:
            graphs = [build_nfv_graph(name, scale)]
            kind = "nfv"
        elif name in FTV_DATASETS:
            graphs = build_ftv_graphs(name, scale)
            kind = "ftv"
        else:
            raise ValueError(
                f"unknown dataset {name!r}; known: "
                f"{NFV_DATASETS + FTV_DATASETS}"
            )
        return self._install(
            name, graphs, kind, scale, tuple(algorithms), ftv_method,
            max_path_length, config,
        )

    def _existing(self, name: str, config: tuple):
        """The already-loaded entry for ``name``, or None.

        A configuration mismatch raises: silently answering from the
        old configuration would corrupt results.
        """
        existing = self._entries.get(name)
        if existing is None:
            return None
        if existing.load_config != config:
            raise ValueError(
                f"dataset {name!r} already loaded with config "
                f"{existing.load_config}; unload it before "
                f"re-loading with {config}"
            )
        existing.verify_frozen()
        return existing

    def _install(
        self,
        name: str,
        graphs: list[LabeledGraph],
        kind: str,
        scale: str,
        algorithms: tuple[str, ...],
        ftv_method: str,
        max_path_length: int,
        config: tuple,
        prebuilt_index: Optional[FTVIndex] = None,
        interner: Optional[LabelInterner] = None,
    ) -> DatasetEntry:
        """Build, warm, freeze, and store one entry (load + register).

        ``prebuilt_index`` is the store-boot shortcut: an FTV index
        already reconstructed from disk skips the census build and is
        warmed (sealed) and frozen exactly like a fresh one.
        ``interner`` is the label code space an index built here is
        built in (see :meth:`register`).
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
                prepared_algorithms=tuple(algorithms),
                load_config=config,
            )
        else:
            index = prebuilt_index
            if index is None:
                cls = FTV_INDEX_CLASSES.get(ftv_method)
                if cls is None:
                    raise ValueError(
                        f"unknown FTV method {ftv_method!r}"
                    )
                index = cls(
                    graphs,
                    max_path_length=max_path_length,
                    interner=interner,
                )
            # warm the bitset posting lists now: the first served query
            # probes pre-sealed threshold masks instead of paying the
            # lazy seal on the hot path
            warm_stats = index.warm()
            entry = DatasetEntry(
                name=name,
                scale=scale,
                kind="ftv",
                graphs=graphs,
                ftv_index=index,
                stats=LabelStats.of_collection(graphs),
                load_config=config,
                warm_stats=warm_stats,
            )
        entry.freeze()
        self._entries[name] = entry
        return entry

    def register(
        self,
        name: str,
        graphs: list[LabeledGraph],
        kind: str,
        scale: str = "custom",
        algorithms: tuple[str, ...] = ("GQL", "SPA"),
        ftv_method: str = "Grapes",
        max_path_length: int = 3,
        prebuilt_index: Optional[FTVIndex] = None,
        interner: Optional[LabelInterner] = None,
    ) -> DatasetEntry:
        """Install pre-built ``graphs`` as a warm entry under ``name``.

        This is the sharding hook: a :class:`ShardedCatalog` partitions
        a collection and registers each partition on its own shard
        catalog, which warms per-shard matcher indexes and Grapes/GGSX
        filters exactly as :meth:`load` would for the full set.  The
        entry's ``load_config`` is marked ``"registered"`` and carries
        the graph shapes, so re-registering the same name with the same
        graph shapes and configuration is idempotent; a mismatch
        raises, like a conflicting re-load.  ``interner`` is the label
        code space of the collection ``graphs`` is a partition of: the
        partition's filter index is built in it (``prebuilt_index``
        already was), so every partition answers one query census.
        """
        if kind not in ("nfv", "ftv"):
            raise ValueError(f"unknown dataset kind {kind!r}")
        if not graphs:
            raise ValueError("cannot register an empty graph list")
        if kind == "nfv" and len(graphs) != 1:
            raise ValueError("nfv entries hold exactly one graph")
        shapes = tuple((g.order, g.size) for g in graphs)
        config = (
            "registered", scale, kind, tuple(algorithms), ftv_method,
            max_path_length, shapes,
        )
        existing = self._existing(name, config)
        if existing is not None:
            return existing
        return self._install(
            name, list(graphs), kind, scale, tuple(algorithms),
            ftv_method, max_path_length, config,
            prebuilt_index=prebuilt_index, interner=interner,
        )

    def adopt(self, entry: DatasetEntry) -> DatasetEntry:
        """Install an already-built ``entry`` without rebuilding it.

        The replica-sharing hook:
        :class:`repro.service.sharding.ShardedCatalog` warms one
        replica of a shard partition through :meth:`register` and
        adopts the same frozen entry object on the shard's sibling
        replicas.  Sharing is sound because entries are frozen after
        warm-up (``verify_frozen`` checks, not trusts) and the prepare
        cache keys matcher indexes per graph *object*, so replicas
        share warm artifacts transparently instead of paying the build
        N times.  Adopting a name this catalog already holds is
        idempotent when it is the same entry object (same
        ``load_config`` and identity); anything else raises like a
        conflicting re-load.
        """
        existing = self._existing(entry.name, entry.load_config)
        if existing is not None:
            if existing is not entry:
                raise ValueError(
                    f"dataset {entry.name!r} already installed from a "
                    "different build; unload it before adopting"
                )
            return existing
        entry.verify_frozen()
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> DatasetEntry:
        """The loaded entry for ``name`` (KeyError when not loaded)."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"dataset {name!r} not loaded; catalog holds "
                f"{sorted(self._entries)}"
            )
        entry.verify_frozen()
        return entry

    # ------------------------------------------------------------------
    # dynamic collections (incremental index maintenance)
    # ------------------------------------------------------------------

    def add_graph(
        self,
        name: str,
        graph: LabeledGraph,
        graph_id: Optional[int] = None,
        rows: Optional[list] = None,
    ) -> int:
        """Add ``graph`` to a live FTV collection; returns its stable id.

        Incremental maintenance, not a rewarm: the newcomer's census is
        inserted into the existing trie (sealed nodes take its postings
        into their tables in place), novel labels extend the interner
        with appended codes, and memoized query censuses are
        orphaned.  ``graph_id`` may name a tombstoned slot to revive
        (journal replay and the add→remove→re-add drill); ``None``
        appends.  ``rows`` is :meth:`FTVIndex.add_graph`'s output list,
        passed through.
        """
        entry = self._mutable_entry(name)
        index = entry.ftv_index
        gid = index.add_graph(graph, graph_id, rows)
        if gid == len(entry.graphs):
            entry.graphs.append(graph)
        else:
            entry.graphs[gid] = graph
        self._refresh_after_mutation(entry)
        return gid

    def remove_graph(self, name: str, graph_id: int) -> None:
        """Tombstone ``graph_id`` in a live FTV collection.

        The slot keeps its position (stable ids — shard assignments and
        id maps never shift); the index forgets every posting, and the
        graph's prepared-index memos are dropped through the prepare
        cache so the removal shows up in eviction counters.
        """
        entry = self._mutable_entry(name)
        entry.ftv_index.remove_graph(graph_id)
        from ..caching import prepare_cache

        prepare_cache.evict_graph(entry.graphs[graph_id])
        self._refresh_after_mutation(entry)

    def _mutable_entry(self, name: str) -> DatasetEntry:
        entry = self.get(name)
        if entry.kind != "ftv" or entry.ftv_index is None:
            raise ValueError(
                f"dataset {name!r} is not a mutable FTV collection"
            )
        return entry

    def _refresh_after_mutation(self, entry: DatasetEntry) -> None:
        """Re-derive the entry's collection-level state after a mutation.

        Label stats cover the live graphs only; the index reseals
        eagerly (``warm``) so the next probe pays no lazy seal; the
        freeze witness is re-taken (a slot's shape may have changed);
        and registered entries' shape-bearing ``load_config`` is
        updated so idempotent re-registration keeps working.
        """
        index = entry.ftv_index
        live = [entry.graphs[g] for g in index.live_ids()]
        if live:
            entry.stats = LabelStats.of_collection(live)
        entry.warm_stats = index.warm()
        if entry.load_config and entry.load_config[0] == "registered":
            shapes = tuple((g.order, g.size) for g in entry.graphs)
            entry.load_config = entry.load_config[:6] + (shapes,)
        entry.freeze()

    def unload(self, name: str) -> None:
        """Drop a dataset (its graphs take their index memos with
        them); a later :meth:`get` raises."""
        self._entries.pop(name, None)

    def datasets(self) -> list[str]:
        """Names of the loaded datasets."""
        return sorted(self._entries)

    def memory_report(self) -> dict:
        """Per-dataset + total approximate memory accounting."""
        per = {
            name: entry.memory_report()
            for name, entry in sorted(self._entries.items())
        }
        return {
            "datasets": per,
            "total_bytes": sum(r["total_bytes"] for r in per.values()),
        }
