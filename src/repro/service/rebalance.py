"""Online shard rebalancing: migrate graphs off hot shards at quiesce.

:func:`repro.service.sharding.assign_shards` balances shards by *size*
at load time, but served load follows the workload, not the bytes: a
few popular stored graphs can leave one dispatcher pool billing several
times the steps of its siblings.  The per-pool step bills
(:attr:`repro.service.dispatcher.Dispatcher.pool_work`) expose exactly
that signal, and :class:`Rebalancer` acts on it — at **quiesce points**
only (the service fully idle, so no fan-out holds references into the
old layout), it moves whole stored graphs from the hottest shard to the
coldest through :meth:`repro.service.sharding.ShardedCatalog.reassign`,
which re-registers just the changed shards (fresh matcher + filter
indexes, handed to the router) and counts the reassignment.

Answer invariance: a migration changes *where* graphs live, never
*which* graphs exist — filtering is a per-graph predicate and the merge
maps shard-local ids back to global ids, so ``found`` /
``num_embeddings`` / ``matching_ids`` of every budget-completed query
are bit-for-bit identical before and after any sequence of migrations
(pinned by ``tests/test_routing.py`` and
``scenarios/shard2-rebalance.yaml``).
Bills and latencies are historical and legitimately shift — that is
the point.

Everything is deterministic: the trigger reads virtual step counters,
the victim choice is a pure function of (loads, assignment, graph
sizes), and ties break on ascending shard/graph id.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import Counter
from ..scheduling import skew_ratio
from .replicas import ReplicaSet
from .sharding import ShardedCatalog, coldest_shard

__all__ = ["Migration", "Rebalancer", "coldest_shard", "shard_loads"]


def shard_loads(replicas: ReplicaSet, pool_work) -> list[int]:
    """Per-shard step bills summed over every pool that served each
    shard (dead replicas' history included — bills are historical)."""
    return [
        sum(
            pool_work[p]
            for p in replicas.shard_pools(s)
            if p < len(pool_work)
        )
        for s in range(replicas.num_shards)
    ]


@dataclass(frozen=True)
class Migration:
    """One whole stored graph moved between shards."""

    dataset: str
    graph_id: int
    src: int
    dst: int
    #: virtual clock at the quiesce point that applied the move
    clock: int


class Rebalancer:
    """Watches per-shard step bills; migrates graphs when they skew.

    Parameters
    ----------
    service:
        A :class:`~repro.service.Service`; a single-shard one makes
        every check a counted no-op.
    skew_threshold:
        Hottest/coldest bill ratio (since the last rebalance) above
        which a migration is attempted.  1.0 rebalances on any
        imbalance; the 1.25 default ignores noise-level skew.
    min_window_steps:
        Minimum total steps billed since the last rebalance before the
        skew signal is trusted at all — a handful of queries is not a
        load profile.
    max_moves:
        Whole-graph moves per quiesce point, across all datasets.
        Small on purpose: each move re-registers two shards, and a
        persistent skew will trigger again at the next quiesce.

    Degenerate topologies never raise: a single shard, an all-dark
    layout, or a collection too small to migrate
    simply no-ops with the ``degenerate`` counter ticking — the
    rebalancer is an opportunistic background concern, and "nothing to
    do" is an answer, not an error.
    """

    def __init__(
        self,
        service,
        skew_threshold: float = 1.25,
        min_window_steps: int = 2_048,
        max_moves: int = 2,
    ) -> None:
        if skew_threshold < 1.0:
            raise ValueError("skew_threshold must be >= 1.0")
        if max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        self.service = service
        self.skew_threshold = skew_threshold
        self.min_window_steps = min_window_steps
        self.max_moves = max_moves
        #: pool_work snapshot at the last rebalance (window baseline)
        self._baseline = list(service.dispatcher.pool_work)
        #: graph_bills snapshot at the last rebalance (per-graph window)
        self._graph_baseline = dict(service.planner.graph_bills)
        #: every migration applied, in order
        self.migrations: list[Migration] = []
        #: quiesce checks that actually moved at least one graph
        self.rebalances = Counter()
        #: quiesce checks that found no actionable skew
        self.skipped = Counter()
        #: quiesce checks no-opped by a degenerate topology
        self.degenerate = Counter()
        registry = getattr(service, "metrics", None)
        if registry is not None:
            # a service may see several Rebalancer configs over its
            # life (benches re-wrap the same service), so re-register
            self._register_metrics(registry)

    def _register_metrics(self, registry, prefix: str = "rebalance") -> None:
        registry.register(
            f"{prefix}.rebalances", self.rebalances, replace=True
        )
        registry.register(
            f"{prefix}.skipped_checks", self.skipped, replace=True
        )
        registry.register(
            f"{prefix}.degenerate_checks", self.degenerate, replace=True
        )
        registry.gauge(
            f"{prefix}.migrations", lambda: len(self.migrations), replace=True
        )
        registry.gauge(
            f"{prefix}.window_loads", self.window_loads, replace=True
        )

    # ------------------------------------------------------------------
    # signal
    # ------------------------------------------------------------------

    def _pool_window(self) -> list[int]:
        """Per-pool steps billed since the last rebalance.

        Pools added after the baseline snapshot (replica scale-out)
        default to a zero baseline — their whole bill is window load.
        """
        base = self._baseline
        return [
            work - (base[i] if i < len(base) else 0)
            for i, work in enumerate(
                self.service.dispatcher.pool_work
            )
        ]

    def window_loads(self) -> list[int]:
        """Per-shard steps billed since the last rebalance.

        With replicas a shard's load sums over every pool that ever
        served it (dead replicas' history included), so the migration
        signal keeps per-shard semantics whatever the replica layout.
        """
        return shard_loads(self.service.replica_set, self._pool_window())

    # ------------------------------------------------------------------
    # action
    # ------------------------------------------------------------------

    def maybe_rebalance(self) -> list[Migration]:
        """Migrate if (and only if) quiesced, warmed up, and skewed.

        Returns the migrations applied this call (empty when nothing
        moved).  Never raises on a busy service — rebalancing is an
        opportunistic background concern, so a non-idle service simply
        means "not now".
        """
        service = self.service
        if not service.idle:
            return []
        catalog = service.catalog
        if catalog.num_shards < 2:
            # degenerate topology: nothing to migrate between — no-op,
            # never an exception (satellite of the failure model: a
            # rebalancer must survive any layout it is pointed at)
            self.degenerate.inc()
            return []
        loads = self.window_loads()
        if sum(loads) < self.min_window_steps:
            self.skipped.inc()
            return []
        applied: list[Migration] = []
        # only shards with a serving replica can give or take graphs
        serving = [
            s for s in range(catalog.num_shards) if s not in catalog.dark
        ]
        if len(serving) < 2:
            self.degenerate.inc()
        elif skew_ratio([loads[s] for s in serving]) >= (
            self.skew_threshold
        ):
            hot = max(serving, key=lambda s: (loads[s], -s))
            cold = coldest_shard(catalog, loads)
            applied = self._migrate(hot, cold, loads)
        if applied:
            self.rebalances.inc()
            self._baseline = list(service.dispatcher.pool_work)
            self._graph_baseline = dict(service.planner.graph_bills)
        else:
            self.skipped.inc()
        return applied

    def graph_window(self, dataset: str, graph_id: int) -> int:
        """One stored graph's verification steps since the last rebalance."""
        key = (dataset, graph_id)
        return self.service.planner.graph_bills.get(
            key, 0
        ) - self._graph_baseline.get(key, 0)

    def _migrate(
        self, hot: int, cold: int, loads: list[int]
    ) -> list[Migration]:
        """Move graphs hot -> cold while each move shrinks the gap.

        Victim choice runs on the service's **per-graph step bills**
        (:attr:`repro.service.planner.RacePlanner.graph_bills`, filled by
        the FTV sweeps), not a size proxy: when one graph of a
        size-balanced shard is hot, its observed window load is what
        must move.  A graph migrates only while its window load is
        strictly below the remaining hot-cold gap (the move strictly
        narrows it — no oscillation), hottest graph first, id as
        tie-break; an unbilled graph never moves (no signal, no churn).
        """
        catalog: ShardedCatalog = self.service.catalog
        gap = loads[hot] - loads[cold]
        applied: list[Migration] = []
        for name in catalog.datasets():
            if len(applied) >= self.max_moves:
                break
            entry = catalog.get(name)
            if entry.kind != "ftv":
                continue
            hot_ids = list(entry.assignment[hot])
            if len(hot_ids) < 2:
                continue  # never empty a shard below one graph
            window = {g: self.graph_window(name, g) for g in hot_ids}
            moved: list[int] = []
            for gid in sorted(hot_ids, key=lambda g: (-window[g], g)):
                if len(applied) + len(moved) >= self.max_moves:
                    break
                if len(hot_ids) - len(moved) < 2:
                    break
                share = window[gid]
                if share <= 0:
                    break  # remaining graphs carry no observed load
                if share >= gap:
                    continue  # would overshoot: gap would not shrink
                moved.append(gid)
                gap -= 2 * share
            if not moved:
                continue
            assignment = [list(ids) for ids in entry.assignment]
            for gid in moved:
                assignment[hot].remove(gid)
                assignment[cold].append(gid)
            catalog.reassign(name, assignment)
            clock = self.service.clock
            applied.extend(
                Migration(name, gid, hot, cold, clock) for gid in moved
            )
        self.migrations.extend(applied)
        return applied
