"""Who serves each shard: replica ids, their pools and their health.

A replica is what the service schedules on — an id, a dispatcher
worker pool and a :class:`~repro.service.faults.ReplicaState` — never
a copy of data: every replica of a shard races over the shard's one
warm partition (:attr:`repro.service.sharding.ShardedCatalog.partitions`).
:class:`ReplicaSet` is the one record of that topology.  It numbers
replicas and pools, tracks which replicas still serve, marks kills,
wedges and retirements, and places new legs; the catalog only hears
from it whether a shard still has a serving replica
(:meth:`~repro.service.sharding.ShardedCatalog.set_serving`): it
unloads the partition of a shard that went dark and warms it again
when one comes back.

Pools are numbered in the order replicas are made, shard-major at
construction — ``(shard s, replica 0..R-1)`` maps to pools
``s*R .. s*R+R-1`` — so with one replica per shard pool index == shard
index.  Replica ids are monotone per shard and never reused, and a
released replica keeps its pool so per-shard bills stay attributable.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Counter
from .faults import ReplicaState

__all__ = ["ReplicaSet"]


class ReplicaSet:
    """Replica ids, pools and health of every shard of one catalog.

    Every shard starts with the catalog's ``replicas`` replicas, and
    ``dispatcher`` must start with one pool for each; :meth:`add` grows
    it in lockstep.
    """

    def __init__(self, catalog, dispatcher):
        self.catalog = catalog
        self.dispatcher = dispatcher
        self.num_shards = catalog.num_shards
        self.killed = Counter()
        self.wedged = Counter()
        self.retired = Counter()
        #: replicas added / released after construction (scaling + kills)
        self.added = 0
        self.released = 0
        #: (shard, replica) -> pool; kept for released replicas
        self._pool_of: dict[tuple[int, int], int] = {}
        #: serving replica ids per shard (released ones removed)
        self._serving: list[list[int]] = [[] for _ in range(self.num_shards)]
        self._next_id = [0] * self.num_shards
        #: (shard, replica) -> state; absent = LIVE
        self.states: dict[tuple[int, int], ReplicaState] = {}
        #: (shard, replica) -> virtual clock at which a wedge expires
        self.suspect_until: dict[tuple[int, int], int] = {}
        #: bumped by every change to which replicas serve or to their
        #: health (add, kill, wedge, unwedge, retire): placement read
        #: before and after the same value sees the same candidates
        self.changes = 0
        for shard in range(self.num_shards):
            for _ in range(catalog.replicas):
                self._materialize(shard, len(self._pool_of))
        if dispatcher.pools != len(self._pool_of):
            raise ValueError(
                f"dispatcher has {dispatcher.pools} pools for "
                f"{len(self._pool_of)} replicas"
            )

    def _materialize(self, shard: int, pool: int) -> int:
        replica = self._next_id[shard]
        self._next_id[shard] += 1
        self._pool_of[(shard, replica)] = pool
        self._serving[shard].append(replica)
        return replica

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def ids(self, shard: int) -> tuple[int, ...]:
        """Serving replica ids of ``shard`` (ascending)."""
        return tuple(self._serving[shard])

    def pool_index(self, shard: int, replica: int) -> int:
        """The dispatcher pool backing ``(shard, replica)``."""
        return self._pool_of[(shard, replica)]

    def shard_pools(self, shard: int) -> tuple[int, ...]:
        """Every pool ever backing ``shard``, released replicas included
        (per-shard bills must keep counting a dead replica's history)."""
        return tuple(sorted(
            pool for (s, _), pool in self._pool_of.items() if s == shard
        ))

    def state(self, shard: int, replica: int) -> ReplicaState:
        """Health of one replica (LIVE unless marked otherwise)."""
        return self.states.get((shard, replica), ReplicaState.LIVE)

    def live(self, shard: int) -> list[int]:
        """Serving replica ids of ``shard`` currently LIVE."""
        return [
            r for r in self._serving[shard]
            if self.state(shard, r) is ReplicaState.LIVE
        ]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def placeable(self, shard: int) -> list[tuple[int, int]]:
        """``(pool, replica)`` candidates that may take new work.

        Live replicas first; when every serving replica is suspect
        (wedged) the suspects are used anyway — work placed there
        stalls until the wedge expires rather than degrading, because
        a straggler is a delay, not a loss.  Empty = dark shard.
        """
        for wanted in (ReplicaState.LIVE, ReplicaState.SUSPECT):
            found = [
                (self.pool_index(shard, r), r)
                for r in self._serving[shard]
                if self.state(shard, r) is wanted
            ]
            if found:
                return found
        return []

    def place(
        self, shard: int, width: Optional[int] = None
    ) -> Optional[tuple[int, int]]:
        """Pick ``(pool, replica)`` for one new shard leg, or None (dark).

        Least-loaded-live placement: among candidates, prefer pools
        with ``width`` free slots right now, then the lowest step bill
        (``Dispatcher.pool_work``), replica id as the deterministic
        tie-break.  With one replica per shard this is ``pool == shard``.
        """
        candidates = self.placeable(shard)
        if not candidates:
            return None
        dispatcher = self.dispatcher
        if width is not None:
            fitting = [
                c for c in candidates
                if width <= dispatcher.slots_free(c[0])
            ]
            if fitting:
                candidates = fitting
        return min(
            candidates, key=lambda c: (dispatcher.pool_work[c[0]], c[1])
        )

    def fits(self, widths: dict) -> bool:
        """Whether every ``shard -> race width`` can co-schedule on some
        placeable pool of its shard right now."""
        return all(
            any(
                width <= self.dispatcher.slots_free(pool)
                for pool, _ in self.placeable(shard)
            )
            for shard, width in widths.items()
        )

    def dark(self, shards) -> list[int]:
        """The given shards that have no serving replica, ascending."""
        return sorted(s for s in set(shards) if not self.placeable(s))

    def busiest(self, shard: int, legs: dict) -> Optional[int]:
        """The serving replica with the most in-flight ``legs`` (replica
        -> count), then the highest step bill, then the highest id — the
        deterministic resolution of a ``replica=-1`` kill, chosen so a
        seeded drill reliably hits a replica with work to lose."""
        self.catalog.check_shard(shard)
        ids = self._serving[shard]  # never DEAD or RETIRED
        if not ids:
            return None
        work = self.dispatcher.pool_work
        return max(
            ids,
            key=lambda r: (legs.get(r, 0), work[self.pool_index(shard, r)], r),
        )

    def frozen_pools(self) -> frozenset:
        """Pools that run nothing this tick (wedged replicas)."""
        if not self.suspect_until:
            return frozenset()
        return frozenset(
            self._pool_of[key]
            for key in self.suspect_until
            if self.states.get(key) is ReplicaState.SUSPECT
        )

    def unwedge_expired(self, clock: int) -> None:
        """Return SUSPECT replicas whose wedge ran out to LIVE."""
        if not self.suspect_until:
            return
        for key, until in sorted(self.suspect_until.items()):
            if clock >= until:
                del self.suspect_until[key]
                self.changes += 1
                if self.states.get(key) is ReplicaState.SUSPECT:
                    del self.states[key]

    # ------------------------------------------------------------------
    # changes
    # ------------------------------------------------------------------

    def add(self, shard: int) -> int:
        """Give ``shard`` one more serving replica and pool; its id.

        On a dark shard the catalog warms the shard's partition again;
        beside a serving sibling nothing is warmed.
        """
        self.catalog.check_shard(shard)
        replica = self._materialize(shard, self.dispatcher.add_pool())
        self.catalog.set_serving(shard, True)
        self.added += 1
        self.changes += 1
        return replica

    def kill(self, shard: int, replica: int) -> bool:
        """Mark a serving replica DEAD and release it; False (nothing
        done) when ``shard`` has no such serving replica."""
        self.catalog.check_shard(shard)
        if replica not in self._serving[shard]:
            return False
        self._release(shard, replica, ReplicaState.DEAD)
        self.killed.inc()
        return True

    def wedge(self, shard: int, replica: int, until: int) -> bool:
        """Mark a serving replica SUSPECT until virtual clock ``until``;
        False when ``shard`` has no such serving replica."""
        self.catalog.check_shard(shard)
        if replica not in self._serving[shard]:
            return False
        self.states[(shard, replica)] = ReplicaState.SUSPECT
        self.suspect_until[(shard, replica)] = until
        self.wedged.inc()
        self.changes += 1
        return True

    def retire(
        self, shard: int, replica: Optional[int] = None
    ) -> Optional[int]:
        """Retire a LIVE replica (the highest by default), never the
        shard's last live one; its id, or None when it cannot shrink."""
        self.catalog.check_shard(shard)
        live = self.live(shard)
        if len(live) < 2:
            return None
        if replica is None:
            replica = max(live)
        elif replica not in live:
            return None
        self._release(shard, replica, ReplicaState.RETIRED)
        self.retired.inc()
        return replica

    def _release(self, shard: int, replica: int, state: ReplicaState) -> None:
        """Drop a replica from serving for good; the shard's last one
        takes the shard dark."""
        self.states[(shard, replica)] = state
        self.suspect_until.pop((shard, replica), None)
        self._serving[shard].remove(replica)
        self.catalog.set_serving(shard, bool(self._serving[shard]))
        self.released += 1
        self.changes += 1

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """The ``service.replicas`` view: per-shard counts, non-LIVE
        states and the health counters."""
        shards = range(self.num_shards)
        return {
            "counts": [len(self.ids(s)) for s in shards],
            "live": [len(self.live(s)) for s in shards],
            "states": {
                f"{s}/{r}": state.value
                for (s, r), state in sorted(self.states.items())
            },
            "killed": self.killed.value,
            "wedged": self.wedged.value,
            "retired": self.retired.value,
        }
