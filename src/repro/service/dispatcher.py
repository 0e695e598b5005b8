"""Deterministic concurrent dispatch of many Ψ races.

The paper runs one race at a time; a service interleaves many.  The
single-query semantics stay **bit-for-bit identical** to
:func:`repro.psi.executors.interleaved_race` because both run the same
loop: :class:`repro.psi.executors.RaceTask`, whose
:meth:`~repro.psi.executors.RaceTask.round` executes exactly one
quantum turn and can therefore be interleaved with other races —
engines are generators and don't notice what runs between their turns.

:class:`Dispatcher` owns one or more **pools** of ``workers`` simulated
workers each (``pools=1`` is the classic single-pool service;
``pools=N`` is the sharded layout, one pool per catalog shard).  Each
tick it walks the active races in the caller-provided priority order
(the service passes fair-share order) and runs one round per race while
its pool has slots; a race's variants are co-scheduled (the paper's
thread-group model), so a race needs one slot in its own pool per
variant its next round advances (:attr:`RaceTask.width`: a staged
race's head runs in one slot until the field joins, and a race whose
start lies a quantum or more ahead runs in none).  All pools share
one virtual clock, which advances one quantum per tick — the parallel
time of the workers' step slices.

Determinism: engines are deterministic generators, the tick order is a
pure function of submission history, and the clock is virtual — two
runs of the same workload produce identical winners, step totals, and
latencies, on any machine.  With ``pools=1`` the behaviour is
bit-for-bit the pre-sharding dispatcher: a pool never sees or steals
another pool's slots, so adding idle pools changes nothing.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Counter
from ..psi.executors import (
    DEFAULT_RACE_QUANTUM,
    RaceOutcome,
    RaceTask,
)

__all__ = ["Dispatcher"]


class Dispatcher:
    """Bounded worker pools interleaving many :class:`RaceTask`\\ s."""

    def __init__(
        self,
        workers: int = 4,
        quantum: int = DEFAULT_RACE_QUANTUM,
        pools: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if pools < 1:
            raise ValueError("pools must be >= 1")
        self.workers = workers
        self.quantum = quantum
        self.pools = pools
        self.clock = 0
        self.ticks = Counter()
        #: total engine-steps executed across all races (work, not time)
        self.work_steps = Counter()
        #: per-pool engine-step bills — the per-shard load signal the
        #: rebalancer watches (pool_work[p] sums over the races pool p ran)
        self.pool_work = [0] * pools
        self._active: dict[object, RaceTask] = {}
        #: token -> pool index the race is pinned to
        self._pool_of: dict[object, int] = {}
        #: per pool, the width its active races claim — kept on admit,
        #: round, finish and cancel, so a free-slot read is O(1)
        self._claimed = [0] * pools
        #: bumped whenever slots free up or a pool is added: a caller
        #: that found no room may skip re-checking until it moves
        self.freed = 0

    def add_pool(self) -> int:
        """Grow the dispatcher by one worker pool (replica scale-out).

        Existing pools, races, and bills are untouched; the new pool
        starts empty with a zero bill.  Returns the new pool's index.
        """
        self.pools += 1
        self.pool_work.append(0)
        self._claimed.append(0)
        self.freed += 1
        return self.pools - 1

    def admit(self, token: object, race: RaceTask, pool: int = 0) -> None:
        """Attach a race to ``pool`` under an opaque ``token``.

        A race wider than its pool can never be co-scheduled — reject
        it loudly rather than deadlocking the tick loop.  The declared
        width counts, not the started one: a staged race admitted on
        its head's one slot would deadlock when its field joins.
        """
        if not 0 <= pool < self.pools:
            raise ValueError(
                f"pool {pool} out of range (dispatcher has "
                f"{self.pools} pools)"
            )
        if len(race.keys) > self.workers:
            raise ValueError(
                f"race has {len(race.keys)} variants but each pool has "
                f"{self.workers} workers; shrink the variant set or "
                "grow the pool"
            )
        self._active[token] = race
        self._pool_of[token] = pool
        self._claimed[pool] += race.width

    @property
    def active(self) -> int:
        """Number of races currently attached (across all pools)."""
        return len(self._active)

    def tokens(self) -> list:
        """Tokens of the attached races, in admission order."""
        return list(self._active)

    def slots_free(self, pool: int = 0) -> int:
        """Worker slots of ``pool`` not claimed by active races."""
        return self.workers - self._claimed[pool]

    def tick(
        self, order: list, frozen: frozenset = frozenset()
    ) -> list[tuple[object, int, Optional[RaceOutcome]]]:
        """One scheduling quantum over every pool.

        ``order`` is the priority order over tokens (the service passes
        fair-share order); unknown tokens are ignored, active tokens
        missing from ``order`` run last in admission order.  Each pool
        spends its own ``workers`` slots on the races pinned to it, in
        the shared priority order.  ``frozen`` pools (wedged replicas —
        see :mod:`repro.service.faults`) run nothing this tick: their
        races keep all state and simply stall, which is exactly a
        straggler.  Returns one
        ``(token, work_steps_this_tick, outcome_or_None)`` event per
        race that ran this tick (outcome set when it finished); the
        shared clock advances by one quantum.
        """
        active, pool_of, claimed = self._active, self._pool_of, self._claimed
        sequence = [t for t in order if t in active]
        if len(sequence) < len(active):
            listed = set(sequence)
            sequence += [t for t in active if t not in listed]
        slots = [self.workers] * self.pools
        pool_work = self.pool_work
        total = 0
        events: list[tuple[object, int, Optional[RaceOutcome]]] = []
        for token in sequence:
            race = active[token]
            pool = pool_of[token]
            if pool in frozen:
                continue
            width = race.width
            if slots[pool] < width:
                continue
            slots[pool] -= width
            outcome = race.round()
            work = race.last_round_steps
            total += work
            pool_work[pool] += work
            if race.width != width:
                claimed[pool] += race.width - width
                if race.width < width:
                    self.freed += 1
            if outcome is not None:
                del active[token]
                del pool_of[token]
            events.append((token, work, outcome))
        self.work_steps.inc(total)
        self.clock += self.quantum
        self.ticks.inc()
        return events

    def cancel(self, token: object) -> Optional[RaceTask]:
        """Detach and kill a race; the race, or None if ``token`` was
        not attached."""
        race = self._active.pop(token, None)
        pool = self._pool_of.pop(token, None)
        if race is not None:
            if race.width:
                self._claimed[pool] -= race.width
                self.freed += 1
            race.close()
        return race
