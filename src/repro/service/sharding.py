"""The served catalog — a collection is N >= 1 shards — and the
fan-out/merge of its answers.

The paper races query *variants* and keeps the first finisher; the
ROADMAP's scaling item applies the same discipline one level up, across
**partitions of the data**.  A :class:`ShardedCatalog` is the one
catalog a :class:`~repro.service.Service` owns: it splits a stored
graph collection across N :class:`~repro.service.catalog.DatasetCatalog`
shards (hash or size-balanced assignment; ``N = 1`` is one shard
holding everything, one replica, pool 0); each shard warms its own
matcher indexes and Grapes/GGSX filter over its partition only.  The
service fans a query out into one race per involved shard, runs them on
per-shard worker pools (``Dispatcher(pools=N)``) over the shared
virtual clock, and merges the per-shard :class:`RaceOutcome`\\ s with
:func:`merge_shard_outcomes`.

Equivalence invariants (proven in ``tests/test_service_sharding.py``):

* **Completed decision answers are shard-invariant.**  An FTV filter
  is a per-graph predicate — a stored graph survives filtering iff it
  alone contains the query's features often enough — so a shard's
  candidate set is exactly the global candidate set restricted to the
  shard, and the union of per-shard verified matches equals the
  single-catalog match set.  The merged ``found`` /
  ``num_embeddings`` / ``matching_ids`` (mapped back to global graph
  ids, ascending) of every *budget-completed* query are therefore
  **bit-for-bit identical** to the one-shard answer, which is what
  lets every layout share one result cache.  The kill
  cap is the one budget semantic that is per race: each shard race
  gets the ticket's full step budget as its own time cap (merged race
  *time* never exceeds the budget, but total *work* may reach budget x
  shards), so under a budget tight enough to kill, *which* queries die
  can differ between layouts — exactly why killed results are
  execution-dependent and are never cached in any layout.
* **Everything is deterministic.**  Assignment is a pure function of
  (graph shapes, shard count, strategy); per-shard races are the same
  deterministic generators as solo races; the merge is a pure fold in
  shard order.  Two runs of the same sharded workload produce identical
  answers, bills, and latencies.
* **Bills are historical, not invariant.**  Merged ``steps`` is the
  *parallel* completion time — the slowest (or, under first-true
  short-circuit, the deciding) shard's race time — and
  ``per_variant_steps`` sums each variant's work across shards.  Like
  every cached bill, these describe what this run paid, not what any
  isomorphic re-issue would pay.

First-winner semantics one level up: in *decision-only* mode
(``QueryOptions(decision_only=True)``) a shard whose race finds a match
settles the query — the service cancels the sibling shards' remaining
budget, mirroring the paper's race where the first finisher kills the
losers.  In the default full mode every shard completes so the merged
``matching_ids`` stay bit-for-bit complete.

Routing rides on top: each FTV entry of a catalog with more than one
shard carries a
:class:`~repro.service.routing.ShardRouter` whose per-shard feature
sketches let the service prune provably-empty shards from the fan-out
and order decision fan-outs (see :mod:`repro.service.routing`), and
:meth:`ShardedCatalog.reassign` migrates whole graphs between shards
at quiesce points (:mod:`repro.service.rebalance`) — both preserving
the answer invariants above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import zlib

from ..graphs import LabeledGraph
from ..harness import (
    FTV_DATASETS,
    NFV_DATASETS,
    build_ftv_graphs,
    build_nfv_graph,
)
from ..indexing import LabelInterner
from ..matching import MatchOutcome
from ..psi.executors import RaceOutcome
from ..rewriting import LabelStats
from .catalog import DatasetCatalog, DatasetEntry
from .routing import ShardRouter

__all__ = [
    "assign_shards",
    "ShardedEntry",
    "ShardedCatalog",
    "merge_shard_outcomes",
]


def assign_shards(
    graphs: Sequence[LabeledGraph],
    num_shards: int,
    strategy: str = "size_balanced",
) -> tuple[tuple[int, ...], ...]:
    """Partition graph ids across ``num_shards`` shards.

    Returns one ascending tuple of global graph ids per shard.  Both
    strategies are pure functions of the inputs (no randomness, no
    iteration-order dependence), so an assignment can be reproduced
    from the dataset alone:

    * ``"hash"`` — graph ``g`` goes to shard ``g % num_shards``; cheap
      and stateless, but blind to graph sizes;
    * ``"size_balanced"`` — longest-processing-time greedy: graphs are
      placed largest-first (by edge count, id as tie-break) onto the
      shard with the fewest assigned edges, so shard verification loads
      stay even when graph sizes vary widely.

    Shards may come out empty when ``num_shards`` exceeds the graph
    count; the service simply never fans a query out to them.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if strategy == "hash":
        out: list[list[int]] = [[] for _ in range(num_shards)]
        for gid in range(len(graphs)):
            out[gid % num_shards].append(gid)
        return tuple(tuple(ids) for ids in out)
    if strategy == "size_balanced":
        out = [[] for _ in range(num_shards)]
        loads = [0] * num_shards
        order = sorted(
            range(len(graphs)),
            key=lambda g: (-graphs[g].size, g),
        )
        for gid in order:
            shard = min(range(num_shards), key=lambda s: (loads[s], s))
            out[shard].append(gid)
            loads[shard] += graphs[gid].size
        return tuple(tuple(sorted(ids)) for ids in out)
    raise ValueError(
        f"unknown assignment strategy {strategy!r}; "
        "known: hash, size_balanced"
    )


def _valid_assignment(stored, num_shards: int, num_graphs: int) -> bool:
    """True when ``stored`` is an exact partition of the graph ids.

    The boot-time gate for honoring a manifest's assignment verbatim:
    every id ``0..num_graphs-1`` appears exactly once across exactly
    ``num_shards`` rows.  Anything else (wrong shard count, missing or
    duplicated ids, junk types) is a clean store miss, never an honored
    layout.
    """
    if not isinstance(stored, list) or len(stored) != num_shards:
        return False
    seen: list[int] = []
    for ids in stored:
        if not isinstance(ids, list):
            return False
        for gid in ids:
            if not isinstance(gid, int) or isinstance(gid, bool):
                return False
            seen.append(gid)
    return sorted(seen) == list(range(num_graphs))


@dataclass
class ShardedEntry:
    """One dataset as the sharded catalog serves it.

    The collection-level fields (``kind``, ``scale``, ``stats`` —
    what cache keys are made of, so cache hits are shared across
    layouts) plus the shard map: which global graph ids live on which
    shard.
    """

    name: str
    scale: str
    kind: str  # "nfv" | "ftv"
    #: the full collection in global id order (graph objects are shared
    #: with the shard entries, never copied)
    graphs: list[LabeledGraph]
    #: collection-wide label statistics (whatever the shard count, so
    #: nothing keyed on them depends on the layout)
    stats: LabelStats
    #: ascending global graph ids per shard (empty tuple = empty shard)
    assignment: tuple[tuple[int, ...], ...]
    #: the single shard holding an NFV entry's stored graph
    home_shard: int
    _catalog: "ShardedCatalog"
    #: the collection's one label code space (FTV entries only): every
    #: shard and replica index, the router's sketches, the store's
    #: index blobs and each ticket's query census are coded in this
    #: object, which only a mutation ever extends
    interner: Optional[LabelInterner] = None
    #: per-shard sketch router (FTV entries over more than one shard;
    #: None = nothing to route between)
    router: Optional[ShardRouter] = None
    #: removed (tombstoned) global graph ids — slots keep their shard
    #: assignment so local→global id maps never shift
    tombstones: set = field(default_factory=set)

    @property
    def num_shards(self) -> int:
        """Shard count of the owning catalog."""
        return len(self.assignment)

    @property
    def max_path_length(self) -> int:
        """The entry's FTV feature path length (census configuration)."""
        return self._register_config[3]

    def involved_shards(self) -> tuple[int, ...]:
        """Shards that hold at least one graph (fan-out targets)."""
        if self.kind == "nfv":
            return (self.home_shard,)
        return tuple(
            s for s, ids in enumerate(self.assignment) if ids
        )

    def shard_ids(self, shard: int) -> tuple[int, ...]:
        """Global graph ids stored on ``shard`` (local id = position)."""
        return self.assignment[shard]

    def live_graph_ids(self) -> list:
        """Non-tombstoned global graph ids, ascending."""
        return [
            gid for gid in range(len(self.graphs))
            if gid not in self.tombstones
        ]

    def shard_of(self, graph_id: int) -> int:
        """The shard whose partition holds ``graph_id``."""
        for shard, ids in enumerate(self.assignment):
            if graph_id in ids:
                return shard
        raise ValueError(
            f"graph id {graph_id} not assigned to any shard of "
            f"{self.name!r}"
        )

    def shard_entry(
        self, shard: int, replica: Optional[int] = None
    ) -> DatasetEntry:
        """The shard's warm :class:`DatasetEntry`.

        Any serving replica answers equivalently; ``None`` picks the
        shard's first serving replica.
        """
        return self._catalog.shard_entry(self.name, shard, replica)

    @property
    def psi(self):
        """The NFV entry's warm Ψ frontend (home shard)."""
        if self.kind != "nfv":
            raise ValueError(f"dataset {self.name!r} is a collection")
        return self.shard_entry(self.home_shard).psi


class ShardedCatalog:
    """N shard catalogs serving partitions of each dataset.

    ``load`` builds a named dataset once, partitions collections with
    :func:`assign_shards`, and registers each partition on its own
    :class:`DatasetCatalog` shard — so every shard warms its own
    matcher indexes and Grapes/GGSX filters over just its graphs.  NFV
    datasets (one stored graph) live whole on a deterministic home
    shard.

    **Replicas.**  With ``replicas=R`` every shard carries R replica
    catalogs, each backing its own dispatcher worker pool, so the
    service can spread a shard's races over replicas and survive a
    replica's death (:mod:`repro.service.faults`).  Pools are numbered
    shard-major at construction — ``(shard s, replica 0..R-1)`` maps to
    pools ``s*R .. s*R+R-1`` — so with ``replicas=1`` pool index ==
    shard index and the catalog is bit-for-bit the pre-replication
    layout.  Replica 0 of each shard is the *primary*; the
    :attr:`shards` property exposes the primaries to keep the PR-4/5
    view working.  Sibling replicas **share warm artifacts**: the first
    replica of a shard builds the partition entry (matcher indexes +
    filter), siblings :meth:`~repro.service.catalog.DatasetCatalog.adopt`
    the same frozen entry object — sound because entries are immutable
    after freeze and the prepare cache keys per graph object
    (``shared_warm`` counts the builds saved).
    """

    def __init__(
        self,
        num_shards: int = 2,
        assignment: str = "size_balanced",
        replicas: int = 1,
        store=None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.num_shards = num_shards
        self.replicas = replicas
        self.assignment_strategy = assignment
        #: attached StoreReader (boot-from-store path); None = always
        #: warm fresh.  Per-shard index blobs restore through
        #: :meth:`_register_replica`, so scale-out replicas boot in
        #: O(read) too.
        self.store = None
        #: dataset name -> verified manifest record usable for
        #: per-shard index restores (layout + config + assignment all
        #: matched this catalog at load time)
        self._store_records: dict[str, dict] = {}
        if store is not None:
            self.attach_store(store)
        #: one DatasetCatalog per (shard, replica), in pool order
        self.pool_catalogs: list[DatasetCatalog] = []
        #: (shard, replica) -> pool index; retained for released
        #: replicas so historical pool bills stay attributable
        self._pool_of: dict[tuple[int, int], int] = {}
        #: serving-capable replica ids per shard (released ones removed)
        self._replicas_of: list[list[int]] = [
            [] for _ in range(num_shards)
        ]
        #: next replica id per shard — monotone, never reused, so a
        #: dead replica's id can't be resurrected by a later scale-out
        self._next_replica_id = [0] * num_shards
        for shard in range(num_shards):
            for _ in range(replicas):
                self._materialize_replica(shard)
        #: completed :meth:`reassign` calls (rebalance bookkeeping)
        self.reassignments = 0
        #: whole stored graphs moved between shards across all reassigns
        self.migrated_graphs = 0
        #: failed reassigns rolled back to the prior assignment
        self.rollbacks = 0
        #: partition builds saved by adopting a sibling replica's entry
        self.shared_warm = 0
        #: monotone collection-state version: bumped by every applied
        #: ``add_graph``/``remove_graph``.  Result-cache keys embed it,
        #: so a mutation implicitly drops every cached answer computed
        #: against the previous collection state — one counter for the
        #: whole catalog, so cache keys are layout-independent
        self.mutation_epoch = 0
        #: replicas added / released after construction (scaling + kills)
        self.replicas_added = 0
        self.replicas_released = 0
        self._entries: dict[str, ShardedEntry] = {}

    def attach_store(self, store):
        """Attach a warmed-artifact store (path or ``StoreReader``).

        The store is a transparent accelerator: subsequent
        :meth:`load` calls restore from it when possible, and any miss,
        mismatch, or corruption degrades to a fresh warm build, never
        to an error (see :mod:`repro.store`).
        """
        from ..store import StoreReader  # deferred: store imports us

        self.store = StoreReader.open(store)
        return self.store

    def _materialize_replica(self, shard: int) -> int:
        """Create one replica catalog + pool slot for ``shard``."""
        replica = self._next_replica_id[shard]
        self._next_replica_id[shard] += 1
        pool = len(self.pool_catalogs)
        self.pool_catalogs.append(DatasetCatalog())
        self._pool_of[(shard, replica)] = pool
        self._replicas_of[shard].append(replica)
        return replica

    # ------------------------------------------------------------------
    # replica topology
    # ------------------------------------------------------------------

    @property
    def shards(self) -> list[DatasetCatalog]:
        """Primary (replica-0) catalog per shard — the PR-4/5 view."""
        return [
            self.pool_catalogs[self._pool_of[(s, 0)]]
            for s in range(self.num_shards)
        ]

    @property
    def pool_count(self) -> int:
        """Total worker pools (one per replica ever materialized)."""
        return len(self.pool_catalogs)

    def replica_ids(self, shard: int) -> tuple[int, ...]:
        """Serving-capable replica ids of ``shard`` (ascending)."""
        return tuple(self._replicas_of[shard])

    def pool_index(self, shard: int, replica: int) -> int:
        """The dispatcher pool backing ``(shard, replica)``."""
        return self._pool_of[(shard, replica)]

    def shard_pools(self, shard: int) -> tuple[int, ...]:
        """Every pool ever backing ``shard``, released replicas included
        (per-shard bills must keep counting a dead replica's history)."""
        return tuple(sorted(
            pool
            for (s, _), pool in self._pool_of.items()
            if s == shard
        ))

    def catalog_of(self, shard: int, replica: int) -> DatasetCatalog:
        """``(shard, replica)``'s backing catalog (KeyError if never
        materialized)."""
        return self.pool_catalogs[self._pool_of[(shard, replica)]]

    def add_replica(
        self, shard: int, prefer_store: Optional[bool] = None
    ) -> int:
        """Materialize one more replica of ``shard`` and warm it.

        Every loaded dataset with graphs on the shard is installed on
        the new replica — from the attached store when one is (the
        elastic O(read) boot; ``prefer_store`` defaults to "store
        attached"), else by adopting a sibling's frozen entry (no
        rebuild).  Returns the new replica id.  Callers growing a live
        service must go through ``Service.add_replica`` so the
        dispatcher grows its pool in lockstep.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range (catalog has "
                f"{self.num_shards} shards)"
            )
        if prefer_store is None:
            prefer_store = self.store is not None
        replica = self._materialize_replica(shard)
        for name in self.datasets():
            entry = self._entries[name]
            if entry.assignment[shard]:
                self._register_replica(
                    entry, shard, replica, prefer_store=prefer_store
                )
        self.replicas_added += 1
        return replica

    def release_replica(self, shard: int, replica: int) -> None:
        """Drop a replica from serving (kill or quiesce retirement).

        Its warm state is unloaded and it never serves again; its pool
        slot and historical bills remain attributable through
        :meth:`shard_pools`.  Releasing an unknown or already-released
        replica is a no-op.
        """
        ids = self._replicas_of[shard]
        if replica not in ids:
            return
        ids.remove(replica)
        catalog = self.catalog_of(shard, replica)
        for name in list(catalog.datasets()):
            catalog.unload(name)
        self.replicas_released += 1

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
    ) -> ShardedEntry:
        """Load ``name``, partition it, and warm every shard.

        Idempotent per name with the same configuration; a conflicting
        re-load raises, mirroring :meth:`DatasetCatalog.load`.
        """
        config = (scale, tuple(algorithms), ftv_method, max_path_length)
        existing = self._entries.get(name)
        if existing is not None:
            if existing._load_config != config:
                raise ValueError(
                    f"dataset {name!r} already loaded with config "
                    f"{existing._load_config}; unload it before "
                    f"re-loading with {config}"
                )
            return existing
        record = graphs = interner = None
        if self.store is not None:
            record, graphs = self._store_lookup(
                name, scale, tuple(algorithms), ftv_method,
                max_path_length,
            )
        if name in NFV_DATASETS:
            if graphs is None:
                graphs = [build_nfv_graph(name, scale)]
            kind = "nfv"
            home = zlib.crc32(name.encode()) % self.num_shards
            assignment = tuple(
                (0,) if s == home else ()
                for s in range(self.num_shards)
            )
        elif name in FTV_DATASETS:
            if graphs is None:
                graphs = build_ftv_graphs(name, scale)
            kind = "ftv"
            home = 0
            assignment = assign_shards(
                graphs, self.num_shards, self.assignment_strategy
            )
        else:
            raise ValueError(
                f"unknown dataset {name!r}; known: "
                f"{NFV_DATASETS + FTV_DATASETS}"
            )
        if record is not None:
            # index blobs were dumped against the manifest's partition;
            # they are only valid against that same partition.  For an
            # FTV record whose stored assignment is a valid partition
            # of the restored graphs, the *stored* layout wins: a
            # mutated collection placed its newcomers by load (the
            # coldest-shard rule), not by the static strategy, and for
            # a never-mutated collection the two are identical anyway.
            stored = record.get("assignment")
            if record.get("kind") != kind:
                self.store.misses += 1
                self.store._event(
                    "assignment_mismatch", dataset=name,
                    stored=stored,
                )
            elif kind == "ftv":
                if not _valid_assignment(
                    stored, self.num_shards, len(graphs)
                ):
                    self.store.misses += 1
                    self.store._event(
                        "assignment_mismatch", dataset=name,
                        stored=stored,
                    )
                else:
                    from ..store import StoreError

                    try:
                        interner = self.store.load_interner(name, graphs)
                    except StoreError:
                        # a refused label table (counted and logged by
                        # the reader): the blobs coded in it are not
                        # read, the record is not honored
                        pass
                    else:
                        assignment = tuple(
                            tuple(int(g) for g in ids) for ids in stored
                        )
                        self._store_records[name] = record
            elif stored != [list(ids) for ids in assignment]:
                self.store.misses += 1
                self.store._event(
                    "assignment_mismatch", dataset=name,
                    stored=stored,
                )
        if kind == "ftv" and interner is None:
            interner = LabelInterner(g.labels for g in graphs)
        entry = ShardedEntry(
            name=name,
            scale=scale,
            kind=kind,
            graphs=graphs,
            stats=LabelStats.of_collection(graphs),
            assignment=assignment,
            home_shard=home,
            _catalog=self,
            interner=interner,
        )
        entry._load_config = config
        entry._register_config = (
            scale, tuple(algorithms), ftv_method, max_path_length
        )
        if name in self._store_records:
            # collection state rides in the record: ids removed before
            # the checkpoint stay removed across the cold boot (the
            # per-shard blobs carry the matching local tombstones)
            entry.tombstones.update(
                int(g) for g in record.get("tombstones", ())
            )
            if entry.tombstones:
                live = [
                    entry.graphs[g] for g in entry.live_graph_ids()
                ]
                if live:
                    entry.stats = LabelStats.of_collection(live)
        if kind == "ftv" and self.num_shards > 1:
            # shard count is a constructor fact: one shard has nothing
            # to prune or order, so it folds no sketch
            entry.router = ShardRouter(entry)
        self._entries[name] = entry
        for shard in entry.involved_shards():
            self._register_shard(entry, shard)
        return entry

    def _store_lookup(
        self,
        name: str,
        scale: str,
        algorithms: tuple[str, ...],
        ftv_method: str,
        max_path_length: int,
    ) -> tuple[Optional[dict], Optional[list]]:
        """(manifest record, restored graphs) for one dataset, either
        of which may be ``None``.

        A layout or config mismatch is a clean miss (the store was
        warmed for a different catalog shape — not corruption).  A
        corrupt graphs blob keeps the *record*: the builders are
        deterministic, so freshly built graphs carry the same label
        codes and the per-shard index blobs stay valid against them.
        """
        from ..store import StoreError

        reader = self.store
        rec = reader.dataset_record(name)
        if rec is None:
            return None, None
        layout = reader.manifest.layout if reader.manifest else {}
        if (
            not layout.get("sharded")
            or layout.get("num_shards") != self.num_shards
            or layout.get("assignment") != self.assignment_strategy
        ):
            reader.misses += 1
            reader._event(
                "layout_mismatch", dataset=name,
                wanted={
                    "sharded": True,
                    "num_shards": self.num_shards,
                    "assignment": self.assignment_strategy,
                },
                found=layout,
            )
            return None, None
        if (
            rec.get("scale") != scale
            or tuple(rec.get("algorithms", ())) != tuple(algorithms)
            or rec.get("ftv_method") != ftv_method
            or rec.get("max_path_length") != max_path_length
        ):
            reader.misses += 1
            reader._event(
                "config_mismatch", dataset=name,
                wanted=[scale, list(algorithms), ftv_method,
                        max_path_length],
            )
            return None, None
        try:
            graphs = reader.load_graphs(name)
        except StoreError:
            reader.rebuilds += 1
            return rec, None
        reader.restores += 1
        return rec, graphs

    def _register_shard(
        self, entry: ShardedEntry, shard: int
    ) -> Optional[DatasetEntry]:
        """(Re-)register one partition on every replica of its shard.

        The first replica builds (or keeps) the partition entry; its
        siblings adopt the same frozen object (see
        :meth:`_register_replica`).  Every (re-)registration also
        re-folds the shard's routing sketch from the fresh filter
        index, so a rebalance migration can never leave a stale sketch
        behind.  A shard with no serving replica (all killed/retired)
        registers nothing and returns ``None`` — the service degrades
        queries needing it.
        """
        sub: Optional[DatasetEntry] = None
        for replica in self.replica_ids(shard):
            got = self._register_replica(entry, shard, replica)
            if sub is None:
                sub = got
        if entry.router is not None and sub is not None:
            entry.router.refresh(shard, sub.ftv_index)
        return sub

    def _register_replica(
        self,
        entry: ShardedEntry,
        shard: int,
        replica: int,
        prefer_store: bool = False,
    ) -> DatasetEntry:
        """(Re-)register one partition on one replica catalog.

        When a sibling replica already holds the identical partition
        (same graph objects in the same order), its frozen entry is
        adopted instead of rebuilt — that is the warm-artifact sharing
        the replication layer is allowed: entries are immutable after
        freeze, so replicas serving the same object cannot diverge.

        When the sharded catalog was booted from a store, the shard's
        warm index restores from its blob instead of rebuilding
        (checked + quarantined through the reader; a bad blob degrades
        to an in-process rebuild).  ``prefer_store=True`` — the
        ``Service.add_replica`` scale-out path — restores from disk
        *even when a donor sibling exists*: a newcomer under live
        chaos load boots from the store by contract, not by accident.
        """
        catalog = self.catalog_of(shard, replica)
        part = [entry.graphs[g] for g in entry.assignment[shard]]
        scale, algorithms, ftv_method, max_path_length = (
            entry._register_config
        )

        def restore_index():
            if entry.kind != "ftv":
                return None
            record = self._store_records.get(entry.name)
            if record is None or self.store is None:
                return None
            from ..store import StoreError

            try:
                index = self.store.load_index(
                    entry.name, part, shard=shard,
                    ftv_method=ftv_method,
                    max_path_length=max_path_length,
                    interner=entry.interner,
                )
            except StoreError:
                self.store.rebuilds += 1
                return None
            self.store.restores += 1
            return index

        index = restore_index() if prefer_store else None
        if index is None:
            for sibling in self.replica_ids(shard):
                if sibling == replica:
                    continue
                donor = self.catalog_of(shard, sibling)._entries.get(
                    entry.name
                )
                if (
                    donor is not None
                    and len(donor.graphs) == len(part)
                    and all(a is b for a, b in zip(donor.graphs, part))
                ):
                    self.shared_warm += 1
                    return catalog.adopt(donor)
            if not prefer_store:
                index = restore_index()
        sub = catalog.register(
            entry.name,
            part,
            kind=entry.kind,
            scale=scale,
            algorithms=algorithms,
            ftv_method=ftv_method,
            max_path_length=max_path_length,
            prebuilt_index=index,
            interner=entry.interner,
        )
        self._reapply_tombstones(entry, shard, catalog, sub)
        return sub

    def _reapply_tombstones(
        self,
        entry: ShardedEntry,
        shard: int,
        catalog: DatasetCatalog,
        sub: DatasetEntry,
    ) -> None:
        """Re-tombstone removed graphs on a freshly (re-)built partition.

        A partition rebuilt from scratch (replica scale-out, rebalance
        migration) indexes every graph object in the assignment —
        including slots a ``remove_graph`` already retired.  Tombstones
        are collection state, not index state, so they are re-applied
        here before the entry can serve.
        """
        if entry.kind != "ftv" or not entry.tombstones:
            return
        for local, gid in enumerate(entry.assignment[shard]):
            if (
                gid in entry.tombstones
                and local not in sub.ftv_index.tombstones
            ):
                catalog.remove_graph(entry.name, local)

    def get(self, name: str) -> ShardedEntry:
        """The sharded entry for ``name`` (KeyError when never loaded)."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"dataset {name!r} not loaded; sharded catalog holds "
                f"{sorted(self._entries)}"
            )
        return entry

    def shard_entry(
        self, name: str, shard: int, replica: Optional[int] = None
    ) -> DatasetEntry:
        """One shard's warm partition entry.

        ``replica`` defaults to the shard's first serving replica; any
        serving replica returns an equivalent (usually the identical,
        adopted) entry.  A shard with no serving replica raises
        KeyError — that is the "dark shard" the service turns into a
        degraded ticket.
        """
        entry = self.get(name)
        if not entry.assignment[shard]:
            raise KeyError(f"shard {shard} holds no graphs of {name!r}")
        ids = self._replicas_of[shard]
        if replica is None:
            if not ids:
                raise KeyError(
                    f"shard {shard} has no serving replica for {name!r}"
                )
            replica = ids[0]
        elif replica not in ids:
            raise KeyError(
                f"replica {shard}/{replica} is not serving {name!r}"
            )
        return self.catalog_of(shard, replica).get(name)

    # ------------------------------------------------------------------
    # dynamic collections (incremental index maintenance)
    # ------------------------------------------------------------------

    def add_graph(
        self,
        name: str,
        graph: LabeledGraph,
        shard: int,
        graph_id: Optional[int] = None,
    ) -> int:
        """Place ``graph`` on ``shard`` and index it incrementally.

        Callers pick the shard (the service routes newcomers through
        the rebalancer's coldest-shard rule; journal replay re-applies
        the recorded placement).  The partition entry is mutated in
        place, so sibling replicas that adopted the shared object see
        the newcomer for free; a store-restored replica holding its own
        build gets the same incremental insert applied to it.  Reviving
        a tombstoned id ignores ``shard`` in favor of the slot's
        existing assignment — ids never migrate implicitly.
        """
        entry = self.get(name)
        if entry.kind != "ftv":
            raise ValueError(
                f"dataset {name!r} is not a mutable FTV collection"
            )
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range (catalog has "
                f"{self.num_shards} shards)"
            )
        if graph_id is None:
            graph_id = len(entry.graphs)
        if graph_id < len(entry.graphs):
            if graph_id not in entry.tombstones:
                raise ValueError(
                    f"graph id {graph_id} is live; remove it before "
                    "re-adding"
                )
            shard = entry.shard_of(graph_id)
            local = entry.assignment[shard].index(graph_id)
            entry.graphs[graph_id] = graph
            entry.tombstones.discard(graph_id)
        elif graph_id == len(entry.graphs):
            entry.graphs.append(graph)
            entry.assignment = tuple(
                ids + (graph_id,) if s == shard else ids
                for s, ids in enumerate(entry.assignment)
            )
            local = len(entry.assignment[shard]) - 1
        else:
            raise ValueError(
                f"graph id {graph_id} out of range for "
                f"{len(entry.graphs)} slots"
            )
        subs = self._distinct_shard_entries(entry, shard)
        # the newcomer's trie rows, as the first partition to index it
        # reports them: every distinct partition indexes the same
        # graphs in the entry's one interner, so any one has its counts
        source = subs[0][1].ftv_index
        rows: list = []
        for catalog, sub in subs:
            if (
                local < len(sub.graphs)
                and sub.graphs[local] is graph
                and local not in sub.ftv_index.tombstones
            ):
                # this sub was registered from the already-updated
                # assignment (previously-empty shard): it holds the
                # newcomer natively — inserting again would double-index
                # it
                continue
            if rows:
                catalog.add_graph(name, graph, local)
            else:
                source = sub.ftv_index
                catalog.add_graph(name, graph, local, rows)
        self._after_mutation(entry)
        if entry.router is not None:
            entry.router.note_add(shard, source, rows)
        return graph_id

    def remove_graph(self, name: str, graph_id: int) -> None:
        """Tombstone ``graph_id`` on its home shard's partitions."""
        entry = self.get(name)
        if entry.kind != "ftv":
            raise ValueError(
                f"dataset {name!r} is not a mutable FTV collection"
            )
        if graph_id in entry.tombstones:
            raise ValueError(f"graph id {graph_id} already removed")
        shard = entry.shard_of(graph_id)
        local = entry.assignment[shard].index(graph_id)
        for catalog, sub in self._distinct_shard_entries(entry, shard):
            if local not in sub.ftv_index.tombstones:
                catalog.remove_graph(name, local)
        entry.tombstones.add(graph_id)
        self._after_mutation(entry)
        if entry.router is not None:
            entry.router.note_remove()

    def _distinct_shard_entries(
        self, entry: ShardedEntry, shard: int
    ) -> list:
        """Each distinct partition entry object serving ``shard``.

        Sibling replicas normally adopt one shared object (one row);
        a store-restored replica may hold its own build, and mutations
        must reach every distinct object or replicas would diverge.
        """
        out: list = []
        seen: set = set()
        for replica in self.replica_ids(shard):
            catalog = self.catalog_of(shard, replica)
            try:
                sub = catalog.get(entry.name)
            except KeyError:
                # the shard held no graph of this dataset until now, so
                # no partition was ever registered on it
                sub = self._register_replica(entry, shard, replica)
            if id(sub) not in seen:
                seen.add(id(sub))
                out.append((catalog, sub))
        if not out:
            raise KeyError(
                f"shard {shard} has no serving replica for "
                f"{entry.name!r}"
            )
        return out

    def _after_mutation(self, entry: ShardedEntry) -> None:
        """Collection-level bookkeeping after one applied mutation."""
        live = [entry.graphs[g] for g in entry.live_graph_ids()]
        if live:
            entry.stats = LabelStats.of_collection(live)
        # per-shard index blobs in the store were dumped against the
        # pre-mutation partition; restoring one now would resurrect a
        # removed graph or miss an added one, so the records are
        # dropped until the next checkpoint re-captures the state
        self._store_records.pop(entry.name, None)
        self.mutation_epoch += 1

    def reassign(
        self,
        name: str,
        assignment: Sequence[Sequence[int]],
    ) -> tuple[int, ...]:
        """Migrate ``name``'s graphs to a new shard assignment.

        The quiesce-point migration primitive behind
        :class:`~repro.service.rebalance.Rebalancer`: callers must
        guarantee no query is mid-flight against this entry (the
        service's ``idle`` property).  Whole stored graphs move between
        shards — only the shards whose partitions actually changed are
        unloaded and re-registered (fresh matcher indexes, filter
        indexes, and routing sketches), the rest keep their warm state.
        The new assignment must be a permutation-free re-partition of
        exactly the same global graph ids; anything else raises before
        any shard is touched.

        Returns the changed shard ids (empty when the assignment is
        already in place).  Answers are invariant under reassignment
        for the same reason they are invariant under sharding at all:
        filtering is a per-graph predicate, and the merge maps local
        ids back to global ids.
        """
        entry = self.get(name)
        if entry.kind != "ftv":
            raise ValueError(
                f"dataset {name!r} is not a collection; NFV entries "
                "live whole on their home shard"
            )
        new = tuple(tuple(sorted(ids)) for ids in assignment)
        if len(new) != self.num_shards:
            raise ValueError(
                f"assignment has {len(new)} shards; catalog has "
                f"{self.num_shards}"
            )
        flat = sorted(g for ids in new for g in ids)
        if flat != list(range(len(entry.graphs))):
            raise ValueError(
                "assignment must cover every graph id exactly once"
            )
        old = entry.assignment
        changed = tuple(
            s for s in range(self.num_shards) if new[s] != old[s]
        )
        if not changed:
            return ()
        moved = sum(
            len(set(new[s]) - set(old[s])) for s in changed
        )
        entry.assignment = new
        touched: list[int] = []
        try:
            for shard in changed:
                touched.append(shard)
                self._unload_shard(name, shard)
                if new[shard]:
                    self._register_shard(entry, shard)
                elif entry.router is not None:
                    entry.router.refresh(shard, None)
        except Exception:
            # a re-register failed mid-migration: roll back to the
            # prior assignment so no half-applied epoch can serve.
            # Only the shards this call touched are rebuilt; the
            # failing build's partial state is unloaded with them.
            entry.assignment = old
            for shard in touched:
                self._unload_shard(name, shard)
                if old[shard]:
                    self._register_shard(entry, shard)
                elif entry.router is not None:
                    entry.router.refresh(shard, None)
            if entry.router is not None:
                entry.router.bump()
            self.rollbacks += 1
            raise
        if entry.router is not None:
            entry.router.bump()
        self.reassignments += 1
        self.migrated_graphs += moved
        return changed

    def _unload_shard(self, name: str, shard: int) -> None:
        """Drop ``name`` from every serving replica of ``shard``."""
        for replica in self.replica_ids(shard):
            self.catalog_of(shard, replica).unload(name)

    def unload(self, name: str) -> None:
        """Drop a dataset from every replica pool (explicit, final)."""
        self._entries.pop(name, None)
        for catalog in self.pool_catalogs:
            catalog.unload(name)

    def datasets(self) -> list[str]:
        """Names of the loaded datasets."""
        return sorted(self._entries)

    def memory_report(self) -> dict:
        """Per-shard memory accounting plus catalog-wide totals.

        ``shards`` reports the primary (replica-0) catalogs — the
        pre-replication view — while ``total_bytes`` sums over every
        replica pool and so counts an adopted (shared) entry once per
        replica holding it: per-pool accounting, like per-pool work,
        even though shared objects make the true resident set smaller.
        """
        per_pool = [c.memory_report() for c in self.pool_catalogs]
        primaries = [
            per_pool[self._pool_of[(s, 0)]]
            for s in range(self.num_shards)
        ]
        store = (
            {"store": self.store.as_metrics()}
            if self.store is not None
            else {}
        )
        return {
            **store,
            "num_shards": self.num_shards,
            "replicas": [
                len(self.replica_ids(s))
                for s in range(self.num_shards)
            ],
            "shards": primaries,
            "pools": {
                f"{s}/{r}": per_pool[pool]
                for (s, r), pool in sorted(self._pool_of.items())
            },
            "total_bytes": sum(r["total_bytes"] for r in per_pool),
            "shared_warm": self.shared_warm,
            "rollbacks": self.rollbacks,
            "replicas_added": self.replicas_added,
            "replicas_released": self.replicas_released,
            "reassignments": self.reassignments,
            "migrated_graphs": self.migrated_graphs,
            "datasets": {
                name: {
                    "kind": e.kind,
                    "graphs_per_shard": [
                        len(ids) for ids in e.assignment
                    ],
                    **(
                        {"routing": e.router.as_metrics()}
                        if e.router is not None
                        else {}
                    ),
                }
                for name, e in sorted(self._entries.items())
            },
        }


# ----------------------------------------------------------------------
# fan-out merge
# ----------------------------------------------------------------------

def merge_shard_outcomes(
    outcomes: dict[int, RaceOutcome],
    id_maps: dict[int, Optional[tuple[int, ...]]],
) -> RaceOutcome:
    """Fold per-shard race outcomes into one :class:`RaceOutcome`.

    ``id_maps[shard]`` maps the shard's local graph ids to global ids
    (``None`` = identity — NFV entries).  With a single
    identity-mapped shard the outcome passes through untouched.

    Merge semantics (deterministic, shard-order fold):

    * ``found`` — OR over shards; ``killed`` — OR over shards (one
      budget-killed shard leaves the merged answer incomplete, so it is
      marked killed and never cached);
    * ``matching_ids`` — per-shard local matches mapped to global ids
      and merged ascending, identical to a one-shard sweep's order;
    * ``num_embeddings`` — summed (FTV: the count of matching graphs);
    * ``steps`` — the deciding shard's race time, where the deciding
      shard is the lowest-indexed shard that found a match, or, when
      none did, the slowest shard (parallel completion time: shards run
      on disjoint pools);
    * ``winner`` — the deciding shard's winner;
    * ``per_variant_steps`` — summed per variant across shards (the
      total work bill of the fan-out).
    """
    if not outcomes:
        raise ValueError("cannot merge zero shard outcomes")
    shards = sorted(outcomes)
    if len(shards) == 1 and id_maps.get(shards[0]) is None:
        return outcomes[shards[0]]
    found_shards = [s for s in shards if outcomes[s].found]
    if found_shards:
        deciding = found_shards[0]
    else:
        deciding = max(shards, key=lambda s: (outcomes[s].steps, -s))
    matching: list[int] = []
    num_embeddings = 0
    per_variant: dict = {}
    overhead = 0
    for s in shards:
        race = outcomes[s]
        overhead += race.overhead_steps
        for variant, steps in race.per_variant_steps.items():
            per_variant[variant] = per_variant.get(variant, 0) + steps
        if race.outcome is None:
            continue
        num_embeddings += race.outcome.num_embeddings
        local = tuple(getattr(race.outcome, "matching_ids", ()))
        id_map = id_maps.get(s)
        matching.extend(
            local if id_map is None else (id_map[i] for i in local)
        )
    found = bool(found_shards)
    merged_match = MatchOutcome(
        found=found, num_embeddings=num_embeddings
    )
    merged_match.matching_ids = tuple(sorted(matching))
    return RaceOutcome(
        winner=outcomes[deciding].winner,
        outcome=merged_match,
        steps=outcomes[deciding].steps,
        found=found,
        killed=any(outcomes[s].killed for s in shards),
        overhead_steps=overhead,
        per_variant_steps=per_variant,
    )
