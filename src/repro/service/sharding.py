"""The served catalog — a collection is N >= 1 shards — and the
fan-out/merge of its answers.

The paper races query *variants* and keeps the first finisher; the
ROADMAP's scaling item applies the same discipline one level up, across
**partitions of the data**.  A :class:`ShardedCatalog` is the one
catalog a :class:`~repro.service.Service` owns: it splits a stored
graph collection across N shards (hash or size-balanced assignment;
``N = 1`` is one shard holding everything, one replica, pool 0), each
holding its partition warm as one
:class:`~repro.service.catalog.DatasetEntry` — its own matcher
indexes and Grapes/GGSX filter over its partition only — however many
replicas serve it (:mod:`repro.service.replicas` owns those; the
catalog only hears when a shard goes dark or comes back).  The service
fans a query out into one race per involved shard, runs each on a pool
of one of the shard's replicas over the shared virtual clock, and
merges the per-shard :class:`RaceOutcome`\\ s with
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

Each FTV entry over more than one shard carries a
:class:`~repro.service.routing.ShardRouter` (pruning and decision
ordering), and :meth:`ShardedCatalog.reassign` migrates whole graphs
between shards at quiesce points (:mod:`repro.service.rebalance`) —
both preserving the answer invariants above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import zlib

from ..datasets import build_graphs, dataset_kind
from ..graphs import LabeledGraph
from ..indexing import LabelInterner
from ..matching import MatchOutcome
from ..psi.executors import RaceOutcome
from ..rewriting import LabelStats
from .catalog import DatasetEntry, warm_entry
from .planner import SERVED_ALGORITHMS
from .routing import ShardRouter

__all__ = [
    "assign_shards",
    "ShardedEntry",
    "ShardedCatalog",
    "coldest_shard",
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
    #: ``(scale, algorithms, ftv_method, max_path_length)`` the entry
    #: was loaded with: the re-load compatibility witness, what every
    #: partition is warmed with, and what a checkpoint records
    load_config: tuple
    _catalog: "ShardedCatalog"
    #: the collection's one label code space (FTV entries only): every
    #: shard's index, the store's index blobs and each ticket's query
    #: census are coded in this object, which only a mutation ever
    #: extends
    interner: Optional[LabelInterner] = None
    #: per-shard router over the shards' filter indexes (FTV entries
    #: over more than one shard; None = nothing to route between)
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
        return self.load_config[3]

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

    def shard_entry(self, shard: int) -> DatasetEntry:
        """The shard's warm :class:`DatasetEntry` (every replica of the
        shard serves this one object)."""
        return self._catalog.shard_entry(self.name, shard)


class ShardedCatalog:
    """N shards serving partitions of each dataset.

    ``load`` builds a named dataset once, partitions collections with
    :func:`assign_shards`, and warms each partition as one
    :class:`DatasetEntry` in its shard's dict (:attr:`partitions`) — so
    every shard warms its own matcher indexes and Grapes/GGSX filters
    over just its graphs.  NFV datasets (one stored graph) live whole
    on a deterministic home shard.

    **Dark shards.**  The warm partition belongs to the shard, not to
    a replica: every replica of a shard
    (:class:`~repro.service.replicas.ReplicaSet`) races over the
    shard's one frozen entry (entries are immutable after freeze and
    the prepare cache keys per graph object), so a mutation patches one
    partition and a shard's memory is counted once.  The replica set
    tells :meth:`set_serving` when a shard loses its last serving
    replica (its partitions unload) or gets one back (they warm again);
    ``replicas`` is the per-shard count it starts with, and the one a
    store checkpoint records.
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
        #: :meth:`_register_shard`, so a dark shard re-warms in O(read)
        #: too.
        self.store = None
        #: datasets whose store record this catalog honoured at load
        #: and has not mutated since: their per-shard index blobs are
        #: still valid to restore
        self._restorable: set[str] = set()
        if store is not None:
            self.attach_store(store)
        #: per shard, dataset name -> the shard's warm partition entry
        self.partitions: list[dict[str, DatasetEntry]] = [
            {} for _ in range(num_shards)
        ]
        #: shards with no serving replica: nothing warm, nothing served
        self.dark: set[int] = set()
        #: completed :meth:`reassign` calls (rebalance bookkeeping)
        self.reassignments = 0
        #: whole stored graphs moved between shards across all reassigns
        self.migrated_graphs = 0
        #: failed reassigns rolled back to the prior assignment
        self.rollbacks = 0
        #: monotone collection-state version: bumped by every applied
        #: ``add_graph``/``remove_graph``.  Result-cache keys embed it,
        #: so a mutation implicitly drops every cached answer computed
        #: against the previous collection state — one counter for the
        #: whole catalog, so cache keys are layout-independent
        self.mutation_epoch = 0
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

    # ------------------------------------------------------------------
    # dark shards
    # ------------------------------------------------------------------

    def set_serving(self, shard: int, serving: bool) -> None:
        """Whether ``shard`` has a serving replica, as the replica set
        says after every change: going dark unloads the shard's
        partitions and drops the routers' handles on their filter
        indexes, coming back warms every loaded dataset's partition
        there again (see :meth:`_register_shard`)."""
        if serving == (shard not in self.dark):
            return
        if serving:
            self.dark.discard(shard)
            for name in self.datasets():
                entry = self._entries[name]
                if entry.assignment[shard]:
                    self._register_shard(entry, shard)
        else:
            self.dark.add(shard)
            self.partitions[shard].clear()
            for entry in self._entries.values():
                if entry.router is not None:
                    entry.router.refresh(shard, None)

    def check_shard(self, shard: int) -> None:
        """ValueError unless ``shard`` is one of this catalog's."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range (catalog has "
                f"{self.num_shards} shards)"
            )

    def _check_serving(self, shard: int, name: str) -> None:
        """KeyError while ``shard`` is dark — it holds no warm
        partition to read or mutate."""
        if shard in self.dark:
            raise KeyError(
                f"shard {shard} has no serving replica for {name!r}"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def load(
        self,
        name: str,
        scale: str = "default",
        algorithms: tuple[str, ...] = SERVED_ALGORITHMS,
        ftv_method: str = "Grapes",
        max_path_length: int = 3,
    ) -> ShardedEntry:
        """Load ``name``, partition it, and warm every shard.

        Re-loading a loaded dataset with the *same configuration*
        returns the existing entry — the whole point of the catalog is
        to never build twice.  A re-load with a different scale,
        algorithm roster, or FTV method raises: silently answering from
        the old configuration would corrupt results.  With a store
        attached, whatever :meth:`StoreReader.restore` allows is
        restored instead of built.
        """
        config = (scale, tuple(algorithms), ftv_method, max_path_length)
        existing = self._entries.get(name)
        if existing is not None:
            if existing.load_config != config:
                raise ValueError(
                    f"dataset {name!r} already loaded with config "
                    f"{existing.load_config}; unload it before "
                    f"re-loading with {config}"
                )
            return existing
        kind = dataset_kind(name)
        home = (
            zlib.crc32(name.encode()) % self.num_shards
            if kind == "nfv" else 0
        )

        def build() -> list[LabeledGraph]:
            return build_graphs(name, scale)
        restored = None
        if self.store is not None:
            restored = self.store.restore(
                name, kind=kind, config=config,
                num_shards=self.num_shards,
                strategy=self.assignment_strategy,
                home_shard=home, build=build,
            )
        graphs = build() if restored is None else restored.graphs
        interner = tombstones = None
        if restored is not None and restored.assignment is not None:
            assignment = restored.assignment
            interner, tombstones = restored.interner, restored.tombstones
            self._restorable.add(name)
        elif kind == "nfv":
            assignment = tuple(
                (0,) if s == home else ()
                for s in range(self.num_shards)
            )
        else:
            assignment = assign_shards(
                graphs, self.num_shards, self.assignment_strategy
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
            load_config=config,
            _catalog=self,
            interner=interner,
        )
        if tombstones:
            # collection state rides in the record: ids removed before
            # the checkpoint stay removed across the cold boot (the
            # per-shard blobs carry the matching local tombstones)
            entry.tombstones.update(tombstones)
            live = [entry.graphs[g] for g in entry.live_graph_ids()]
            if live:
                entry.stats = LabelStats.of_collection(live)
        if kind == "ftv" and self.num_shards > 1:
            # shard count is a constructor fact: one shard has nothing
            # to prune or order, so it gets no router
            entry.router = ShardRouter(entry)
        self._entries[name] = entry
        for shard in entry.involved_shards():
            self._register_shard(entry, shard)
        return entry

    def _register_shard(self, entry: ShardedEntry, shard: int) -> None:
        """(Re-)warm ``entry``'s partition on ``shard``.

        While the catalog's store record of the dataset is honoured
        (booted from it, no mutation since), the shard's filter index
        restores from its blob (checked + quarantined through the
        reader; a bad blob degrades to an in-process rebuild); otherwise
        it is built.  Removed graphs are re-tombstoned, and the router
        is handed the fresh filter index, so a rebalance migration
        can never leave it probing a partition that is gone.  A
        dark shard (every replica killed/retired) warms nothing — the
        service degrades queries needing it, and :meth:`set_serving`
        warms it.
        """
        if shard in self.dark:
            return
        part = [entry.graphs[g] for g in entry.assignment[shard]]
        scale, algorithms, ftv_method, max_path_length = entry.load_config
        index = None
        if entry.kind == "ftv" and entry.name in self._restorable:
            index = self.store.restore_index(
                entry.name, part, shard=shard,
                ftv_method=ftv_method,
                max_path_length=max_path_length,
                interner=entry.interner,
            )
        sub = warm_entry(
            entry.name, part, entry.kind, scale, algorithms,
            ftv_method, max_path_length,
            prebuilt_index=index, interner=entry.interner,
        )
        self.partitions[shard][entry.name] = sub
        self._reapply_tombstones(entry, shard, sub)
        if entry.router is not None:
            entry.router.refresh(shard, sub.ftv_index)

    def _reapply_tombstones(
        self, entry: ShardedEntry, shard: int, sub: DatasetEntry
    ) -> None:
        """Re-tombstone removed graphs on a freshly (re-)built partition.

        A partition rebuilt from scratch (dark-shard re-warm, rebalance
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
                sub.remove_graph(local)

    def get(self, name: str) -> ShardedEntry:
        """The sharded entry for ``name`` (KeyError when never loaded)."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"dataset {name!r} not loaded; sharded catalog holds "
                f"{sorted(self._entries)}"
            )
        return entry

    def shard_entry(self, name: str, shard: int) -> DatasetEntry:
        """One shard's warm partition entry, the one object every
        replica of the shard serves (frozen shape checked on every
        read).  A shard with no serving replica raises KeyError — that
        is the "dark shard" the service turns into a degraded ticket.
        """
        entry = self.get(name)
        if not entry.assignment[shard]:
            raise KeyError(f"shard {shard} holds no graphs of {name!r}")
        self._check_serving(shard, name)
        sub = self.partitions[shard][name]
        sub.verify_frozen()
        return sub

    # ------------------------------------------------------------------
    # dynamic collections (incremental index maintenance)
    # ------------------------------------------------------------------

    def _mutable(self, name: str) -> ShardedEntry:
        try:
            entry = self.get(name)
        except KeyError as exc:
            raise ValueError(str(exc)) from exc
        if entry.kind != "ftv":
            raise ValueError(
                f"dataset {name!r} is not a mutable FTV collection"
            )
        return entry

    def resolve_add(
        self,
        name: str,
        graph_id: Optional[int] = None,
        shard: Optional[int] = None,
        loads: Optional[list] = None,
    ) -> tuple[int, int]:
        """``(graph_id, shard)`` an add to ``name`` applies at — every
        check an add makes, made before anything changes.

        ``graph_id`` None appends; a tombstoned id revives in its
        slot's shard whatever ``shard`` says (ids never migrate
        implicitly).  A newcomer without a ``shard`` goes to the
        :func:`coldest_shard` under per-shard ``loads``, which it then
        needs.  Raises
        ValueError for what can never apply, KeyError while the target
        shard is dark (a later retry may succeed).
        """
        entry = self._mutable(name)
        if shard is not None:
            self.check_shard(shard)
        slots = len(entry.graphs)
        if graph_id is None:
            graph_id = slots
        if graph_id > slots:
            raise ValueError(
                f"graph id {graph_id} out of range for {slots} slots"
            )
        if graph_id < slots:
            if graph_id not in entry.tombstones:
                raise ValueError(
                    f"graph id {graph_id} is live; remove it before "
                    "re-adding"
                )
            shard = entry.shard_of(graph_id)
        elif shard is None:
            if loads is None:
                raise ValueError(
                    "an add with no shard needs per-shard loads to "
                    "find the coldest shard"
                )
            shard = coldest_shard(self, loads)
        self._check_serving(shard, name)
        return graph_id, shard

    def resolve_remove(self, name: str, graph_id: int) -> int:
        """The shard a remove of ``graph_id`` applies on, checked like
        :meth:`resolve_add`."""
        entry = self._mutable(name)
        slots = len(entry.graphs)
        if not 0 <= graph_id < slots:
            raise ValueError(
                f"graph id {graph_id} out of range for {slots} slots"
            )
        if graph_id in entry.tombstones:
            raise ValueError(f"graph id {graph_id} already removed")
        shard = entry.shard_of(graph_id)
        self._check_serving(shard, name)
        return shard

    def add_graph(
        self,
        name: str,
        graph: LabeledGraph,
        shard: int,
        graph_id: Optional[int] = None,
    ) -> int:
        """Place ``graph`` (see :meth:`resolve_add`) and index it
        incrementally; returns its global id.

        The shard's one partition entry is mutated in place, so every
        replica serving it sees the newcomer.
        """
        graph_id, shard = self.resolve_add(name, graph_id, shard)
        entry = self._entries[name]
        # a shard that held no graph of this dataset until now has no
        # partition to extend: it is warmed holding the newcomer
        fresh = not entry.assignment[shard]
        if graph_id < len(entry.graphs):
            local = entry.assignment[shard].index(graph_id)
            entry.graphs[graph_id] = graph
            entry.tombstones.discard(graph_id)
        else:
            entry.graphs.append(graph)
            entry.assignment = tuple(
                ids + (graph_id,) if s == shard else ids
                for s, ids in enumerate(entry.assignment)
            )
            local = len(entry.assignment[shard]) - 1
        if fresh:
            self._register_shard(entry, shard)
        else:
            self.shard_entry(name, shard).add_graph(graph, local)
        self._after_mutation(entry)
        return graph_id

    def remove_graph(self, name: str, graph_id: int) -> None:
        """Tombstone ``graph_id`` on its shard's partition."""
        shard = self.resolve_remove(name, graph_id)
        entry = self._entries[name]
        self.shard_entry(name, shard).remove_graph(
            entry.assignment[shard].index(graph_id)
        )
        entry.tombstones.add(graph_id)
        self._after_mutation(entry)

    def _after_mutation(self, entry: ShardedEntry) -> None:
        """Collection-level bookkeeping after one applied mutation."""
        live = [entry.graphs[g] for g in entry.live_graph_ids()]
        if live:
            entry.stats = LabelStats.of_collection(live)
        # per-shard index blobs in the store were dumped against the
        # pre-mutation partition; restoring one now would resurrect a
        # removed graph or miss an added one, so the record is not
        # honoured again until the next checkpoint re-captures the state
        self._restorable.discard(entry.name)
        self.mutation_epoch += 1
        if entry.router is not None:
            entry.router.bump()

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
        unloaded and re-registered (fresh matcher indexes and filter
        indexes, which the router is handed), the rest keep their warm
        state.
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
                self.partitions[shard].pop(name, None)
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
                self.partitions[shard].pop(name, None)
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

    def datasets(self) -> list[str]:
        """Names of the loaded datasets."""
        return sorted(self._entries)

    def memory_report(self) -> dict:
        """Per-shard memory accounting plus catalog-wide totals.

        ``shards`` holds one report per shard — its warm partitions,
        held once however many replicas serve them (empty while the
        shard is dark) — and ``total_bytes`` sums them, so each
        partition is counted once.  The store's counters, the serving
        replica counts and the routing tables are not repeated here:
        they are ``Service.store_metrics()``, ``service.replicas`` and
        ``routing.tables``.
        """
        per_shard = []
        for partition in self.partitions:
            per = {
                name: sub.memory_report()
                for name, sub in sorted(partition.items())
            }
            per_shard.append({
                "datasets": per,
                "total_bytes": sum(r["total_bytes"] for r in per.values()),
            })
        return {
            "num_shards": self.num_shards,
            "shards": per_shard,
            "total_bytes": sum(r["total_bytes"] for r in per_shard),
            "rollbacks": self.rollbacks,
            "reassignments": self.reassignments,
            "migrated_graphs": self.migrated_graphs,
            "datasets": {
                name: {
                    "kind": e.kind,
                    "graphs_per_shard": [
                        len(ids) for ids in e.assignment
                    ],
                }
                for name, e in sorted(self._entries.items())
            },
        }


def coldest_shard(catalog: ShardedCatalog, loads) -> int:
    """The least-loaded *serving* shard (ascending id tie-break).

    The one placement rule in the codebase: the rebalancer drains hot
    shards toward it, and an add without a pinned shard lands on it,
    so both paths agree on what "cold" means — a pure function of
    (per-shard loads, serving set).
    """
    serving = [
        s for s in range(catalog.num_shards) if s not in catalog.dark
    ]
    if not serving:
        raise KeyError("no shard has a serving replica")
    return min(serving, key=lambda s: (loads[s], s))


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
