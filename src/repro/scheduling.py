"""Deterministic simulation of parallel work schedules.

CPython threads cannot speed up CPU-bound search (the GIL), so this
reproduction *simulates* parallel execution over deterministic step
costs instead of measuring wall-clock noise (see "The step-count
execution-time model" in README.md).  Two
primitives cover everything the paper's systems need:

* :func:`first_match_schedule` — Grapes' multithreaded verification:
  a list of tasks (connected components to verify) is list-scheduled
  onto ``workers`` identical workers; the run ends at the first task
  that reports a match (remaining work is killed), or at the makespan.
* The Ψ-framework's *race* semantics (all variants start simultaneously,
  first finisher wins) are the special case ``workers >= len(tasks)``;
  :mod:`repro.psi` builds on the same cost algebra.

Costs are in engine steps.  Tasks are lazily evaluated: a task whose
scheduled start time already exceeds the current winning finish time (or
the budget) is never executed at all, mirroring a real kill.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from .metrics import CostRecord

__all__ = [
    "ScheduleOutcome",
    "first_match_schedule",
    "FairShareLedger",
    "skew_ratio",
]


def skew_ratio(loads: Sequence[int]) -> float:
    """Hottest-to-coldest load ratio of a set of workers/shards.

    The rebalancing trigger signal: ``max(loads) / min(loads)`` in the
    same step-cost currency as every other scheduling decision.  A
    perfectly balanced set scores 1.0; an idle member alongside a busy
    one scores ``inf`` (maximally skewed); an entirely idle set scores
    1.0 (nothing to balance).  Negative loads are a caller bug.
    """
    if not loads:
        return 1.0
    lo, hi = min(loads), max(loads)
    if lo < 0:
        raise ValueError("loads must be non-negative")
    if hi == 0:
        return 1.0
    if lo == 0:
        return float("inf")
    return hi / lo


@dataclass
class ScheduleOutcome:
    """Result of a simulated parallel run.

    Attributes
    ----------
    time:
        Simulated parallel time in steps (capped at ``budget_steps``).
    found:
        Whether some task reported a match before the cap.
    killed:
        True when the schedule hit ``budget_steps`` without finishing.
    executed:
        Number of tasks actually evaluated (lazy evaluation skips tasks
        that a real run would have killed before their first step).
    task_results:
        Results of the evaluated tasks, in schedule order.
    """

    time: int
    found: bool
    killed: bool
    executed: int
    task_results: list[CostRecord] = field(default_factory=list)


class FairShareLedger:
    """Weighted fair-share accounting in the step-cost currency.

    The serving layer multiplexes many clients over one simulated worker
    pool; *who runs next* is decided by the same cost algebra the
    schedule simulator uses — charged steps, not wall clock.  Each key
    (a tenant) accrues the steps its work consumed; its **virtual time**
    is ``charged / weight``, and :meth:`pick` selects the candidate with
    the least virtual time (classic weighted fair queueing, made
    deterministic by breaking ties on registration order).
    """

    def __init__(self) -> None:
        self._charged: dict[object, int] = {}
        self._weights: dict[object, float] = {}
        self._order: dict[object, int] = {}

    def register(self, key: object, weight: float = 1.0) -> None:
        """Declare ``key`` with a fair-share ``weight`` (idempotent)."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if key not in self._order:
            self._order[key] = len(self._order)
            self._charged[key] = 0
        self._weights[key] = weight

    def charge(self, key: object, steps: int) -> None:
        """Charge ``key`` ``steps`` steps."""
        if steps < 0:
            raise ValueError("cannot charge negative steps")
        if key not in self._order:
            self.register(key)
        self._charged[key] += steps

    def virtual_time(self, key: object) -> float:
        """``charged / weight`` — the WFQ service received by ``key``."""
        if key not in self._order:
            return 0.0
        return self._charged[key] / self._weights[key]

    def registration_index(self, key: object) -> int:
        """Deterministic tie-break rank (registration order)."""
        return self._order.get(key, len(self._order))

    def pick(self, candidates: Sequence[object]) -> Optional[object]:
        """The candidate owed the most service (least virtual time).

        Ties break by registration order, then by candidate position —
        fully deterministic for any fixed submission history.
        """
        best = None
        best_rank: Optional[tuple] = None
        for pos, key in enumerate(candidates):
            if key not in self._order:
                self.register(key)
            rank = (self.virtual_time(key), self._order[key], pos)
            if best_rank is None or rank < best_rank:
                best, best_rank = key, rank
        return best

    def snapshot(self) -> dict:
        """Per-key charged steps (metrics/debugging)."""
        return dict(self._charged)


def first_match_schedule(
    tasks: Sequence[Callable[[int], CostRecord]],
    workers: int,
    budget_steps: Optional[int] = None,
) -> ScheduleOutcome:
    """List-schedule ``tasks`` over ``workers``; stop at the first match.

    Each task is a callable receiving its *remaining step allowance*
    (``budget_steps - start_time``; or a sentinel large value when
    unbudgeted) and returning a :class:`~repro.metrics.CostRecord`.
    Tasks are assigned
    in order to the earliest-free worker (ties: lowest worker id), which
    is the classic deterministic list schedule.

    The run finishes at the earliest finish time among match-reporting
    tasks (first-match semantics, remaining work killed), else at the
    makespan; either is capped at ``budget_steps``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    free_at = [0] * workers
    cap = budget_steps if budget_steps is not None else None
    best_finish: Optional[int] = None  # earliest match finish
    makespan = 0
    executed = 0
    results: list[CostRecord] = []
    for task in tasks:
        worker = min(range(workers), key=lambda w: (free_at[w], w))
        start = free_at[worker]
        if best_finish is not None and start >= best_finish:
            continue  # would be killed before starting
        if cap is not None and start >= cap:
            continue  # budget exceeded before this task could start
        allowance = (cap - start) if cap is not None else (1 << 62)
        if best_finish is not None:
            allowance = min(allowance, best_finish - start)
        result = task(allowance)
        executed += 1
        results.append(result)
        finish = start + result.steps
        free_at[worker] = finish
        makespan = max(makespan, finish)
        if result.found:
            best_finish = (
                finish if best_finish is None else min(best_finish, finish)
            )
    if best_finish is not None:
        time = best_finish if cap is None else min(best_finish, cap)
        found = cap is None or best_finish <= cap
        return ScheduleOutcome(
            time=time,
            found=found,
            killed=not found,
            executed=executed,
            task_results=results,
        )
    if cap is not None and (
        makespan > cap or any(r.killed for r in results)
    ):
        return ScheduleOutcome(
            time=cap,
            found=False,
            killed=True,
            executed=executed,
            task_results=results,
        )
    return ScheduleOutcome(
        time=makespan,
        found=False,
        killed=False,
        executed=executed,
        task_results=results,
    )
