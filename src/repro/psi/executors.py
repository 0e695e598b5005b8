"""Race executors: two ways to run N matching attempts "in parallel".

The Ψ-framework's semantics (paper §8): N threads start simultaneously
on the same query, each with its own rewriting and/or algorithm; the
first to finish is the winner and the rest are killed.  Under ideal
parallelism the race's execution time is the winner's own time plus the
thread instantiation/synchronisation overhead the paper calls
"non-trivial".

Because CPython threads cannot actually overlap CPU-bound work, the
executor **interleaves** the steppable engines round-robin in a single
thread: every engine advances one step per round, so the first engine
to complete is exactly the one with the fewest steps — the
deterministic realisation of "first past the post".  A pure
cost-algebra executor (:func:`race_from_costs`) lets experiment
harnesses replay races from per-variant cost matrices without rerunning
searches.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..matching import Budget, MatchOutcome
from ..matching.engine import SearchEngine

__all__ = [
    "OverheadModel",
    "RaceOutcome",
    "RaceTask",
    "interleaved_race",
    "race_from_costs",
    "AttemptCost",
    "DEFAULT_RACE_QUANTUM",
]

#: Steps each engine advances per scheduling turn.  The race's outcome
#: is provably independent of this value (see :func:`interleaved_race`);
#: larger quanta only cut Python-level context switches.
DEFAULT_RACE_QUANTUM = 64


@dataclass(frozen=True)
class OverheadModel:
    """Cost of spawning/synchronising race threads, in steps.

    The paper observes that "the instantiation and synchronisation of
    many threads come with a non-trivial overhead, impacting the overall
    speedup" (§8) — this model makes that overhead an explicit,
    sweepable parameter (see the race-overhead ablation bench).
    """

    base_steps: int = 0
    per_variant_steps: int = 0

    def cost(self, num_variants: int) -> int:
        """Total overhead charged to a race of ``num_variants``."""
        return self.base_steps + self.per_variant_steps * num_variants

    @classmethod
    def free(cls) -> "OverheadModel":
        """Zero-overhead model (upper-bound speedups)."""
        return cls()


@dataclass
class RaceOutcome:
    """Result of one Ψ race.

    ``steps`` is the race's execution time: the winner's step count plus
    overhead (or budget + overhead when every variant was killed).
    ``work_steps`` is the *total* work all variants performed — the
    price of parallelism, reported for the efficiency ablations.
    """

    winner: Optional[object]
    outcome: Optional[MatchOutcome]
    steps: int
    found: bool
    killed: bool
    overhead_steps: int
    per_variant_steps: dict = field(default_factory=dict)

    @property
    def work_steps(self) -> int:
        """Total steps across all variants (the price of the race)."""
        return sum(self.per_variant_steps.values())


class RaceTask:
    """One race, advanced one quantum-round at a time.

    Semantically this is the 1-step round-robin race — the first engine
    to complete wins, ties resolved by mapping order (variant
    declaration order, the stable stand-in for "whichever thread the
    scheduler favours"), losers are killed, and every variant is
    subject to the same per-variant ``budget``.  The implementation
    advances each engine by a *quantum* of K steps per turn and
    reconstructs the exact 1-step outcome, trading Python context
    switches for K-times-larger work slices:

    * the winner is the engine with the minimum completion step count,
      ties by declaration order.  An engine still alive after a turn at
      step target T has consumed >= T steps, while any completion
      detected during that turn happened strictly below T — so the
      first turn with completions contains the global winner, and
      comparing the completions of that turn suffices;
    * losers are charged the steps they would have consumed under
      1-step round-robin at the moment the winner finished: the
      winner's count, plus one for variants declared before the winner
      (their turn in the final round precedes the winner's), capped at
      the budget.

    The outcome — winner, step counts, ``per_variant_steps`` — is
    therefore *identical* for every ``quantum`` value.

    One call to :meth:`round` executes exactly one turn, so a caller
    may interleave many races over a shared pool (the serving layer's
    dispatcher does) without changing any race's outcome — engines are
    generators and don't notice what runs between their turns.
    :func:`interleaved_race` is the run-to-completion wrapper.
    """

    def __init__(
        self,
        engines: Mapping[object, SearchEngine],
        budget: Optional[Budget] = None,
        overhead: OverheadModel = OverheadModel(),
        quantum: int = DEFAULT_RACE_QUANTUM,
    ) -> None:
        if not engines:
            raise ValueError("race needs at least one variant")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.keys = list(engines)
        self.position = {k: i for i, k in enumerate(self.keys)}
        self.alive: dict[object, SearchEngine] = dict(engines)
        self.consumed = {k: 0 for k in self.keys}
        self.cap = (
            budget.max_steps if budget and budget.max_steps else None
        )
        self.overhead = overhead
        self.quantum = quantum
        self.target = 0
        self.outcome: Optional[RaceOutcome] = None
        #: engine-steps advanced by the most recent round (schedulers
        #: charge actual work, not reconstructed per-variant bills)
        self.last_round_steps = 0

    @property
    def finished(self) -> bool:
        """Whether the race has produced its outcome."""
        return self.outcome is not None

    @property
    def width(self) -> int:
        """Simulated threads one round occupies (alive variants)."""
        return len(self.alive)

    def round(self) -> Optional[RaceOutcome]:
        """Advance every alive engine one quantum; finish if possible."""
        if self.outcome is not None:
            return self.outcome
        cap = self.cap
        self.target += self.quantum
        if cap is not None and self.target > cap:
            self.target = cap
        # (completion steps, declaration position, key, outcome)
        finished: list[tuple[int, int, object, MatchOutcome]] = []
        advanced = 0
        for key in self.keys:
            gen = self.alive.get(key)
            if gen is None:
                continue
            n = self.consumed[key]
            begin = n
            while n < self.target:
                try:
                    inc = next(gen)
                except StopIteration as stop:
                    outcome = stop.value or MatchOutcome()
                    finished.append((n, self.position[key], key, outcome))
                    del self.alive[key]
                    break
                n += 1 if inc is None else inc
            self.consumed[key] = n
            advanced += n - begin
            if key in self.alive and cap is not None and n >= cap:
                gen.close()
                del self.alive[key]
        self.last_round_steps = advanced
        over = self.overhead.cost(len(self.keys))
        if finished:
            finished.sort(key=lambda f: (f[0], f[1]))
            won, won_pos, key, outcome = finished[0]
            outcome.steps = won
            per_variant = {}
            for k in self.keys:
                charged = won + (1 if self.position[k] < won_pos else 0)
                if cap is not None and charged > cap:
                    charged = cap
                per_variant[k] = charged
            self.close()
            self.outcome = RaceOutcome(
                winner=key,
                outcome=outcome,
                steps=won + over,
                found=outcome.found,
                killed=False,
                overhead_steps=over,
                per_variant_steps=per_variant,
            )
        elif not self.alive:
            # every variant hit the cap: the race is killed at the budget
            assert cap is not None
            self.outcome = RaceOutcome(
                winner=None,
                outcome=None,
                steps=cap + over,
                found=False,
                killed=True,
                overhead_steps=over,
                per_variant_steps={k: cap for k in self.keys},
            )
        return self.outcome

    def run_to_completion(self) -> RaceOutcome:
        """Drive rounds until the race resolves."""
        try:
            while self.outcome is None:
                self.round()
        finally:
            # an engine that raised mid-round must not leak the rest
            self.close()
        return self.outcome

    def close(self) -> None:
        """Close any still-alive engines (kill the losers)."""
        for gen in self.alive.values():
            gen.close()
        self.alive.clear()


def interleaved_race(
    engines: Mapping[object, SearchEngine],
    budget: Optional[Budget] = None,
    overhead: OverheadModel = OverheadModel(),
    quantum: int = DEFAULT_RACE_QUANTUM,
) -> RaceOutcome:
    """Deterministic race: round-robin ``quantum`` steps per engine turn.

    The run-to-completion form of :class:`RaceTask` — see its docstring
    for the winner/charge reconstruction argument.
    """
    return RaceTask(
        engines, budget=budget, overhead=overhead, quantum=quantum
    ).run_to_completion()


@dataclass(frozen=True)
class AttemptCost:
    """Measured cost of one variant's standalone attempt."""

    steps: int
    found: bool
    killed: bool


def race_from_costs(
    costs: Mapping[object, AttemptCost],
    budget_steps: Optional[int] = None,
    overhead: OverheadModel = OverheadModel(),
) -> RaceOutcome:
    """Replay a race from per-variant costs (the "simulated" executor).

    The winner is the variant with the fewest steps among those that
    *completed* (killed attempts never finish); ties break by mapping
    order.  Experiment harnesses use this to evaluate every Ψ variant
    set from a single per-variant cost matrix, exactly as the paper's
    speedup* metric is defined (§3.5).
    """
    if not costs:
        raise ValueError("race needs at least one variant")
    over = overhead.cost(len(costs))
    winner: Optional[object] = None
    best: Optional[AttemptCost] = None
    for key, cost in costs.items():
        if cost.killed:
            continue
        if best is None or cost.steps < best.steps:
            winner, best = key, cost
    per_variant = {
        k: min(c.steps, best.steps) if best is not None else c.steps
        for k, c in costs.items()
    }
    if best is None:
        cap = budget_steps if budget_steps is not None else max(
            c.steps for c in costs.values()
        )
        return RaceOutcome(
            winner=None,
            outcome=None,
            steps=cap + over,
            found=False,
            killed=True,
            overhead_steps=over,
            per_variant_steps=per_variant,
        )
    return RaceOutcome(
        winner=winner,
        outcome=None,
        steps=best.steps + over,
        found=best.found,
        killed=False,
        overhead_steps=over,
        per_variant_steps=per_variant,
    )
