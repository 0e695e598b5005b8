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
searches; the thread overhead is an assumption of such a replay
(:class:`OverheadModel`), so only :func:`race_from_costs` charges one.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..matching import Budget, MatchOutcome
from ..matching.engine import SearchEngine
from ..metrics import CostRecord

__all__ = [
    "OverheadModel",
    "RaceOutcome",
    "RaceTask",
    "interleaved_race",
    "race_from_costs",
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


@dataclass
class RaceOutcome:
    """Result of one Ψ race.

    ``steps`` is the race's execution time: the winner's step count plus
    overhead (or budget + overhead when every variant was killed); only
    a replayed race (:func:`race_from_costs`) charges overhead, so a
    live race's ``overhead_steps`` is 0.
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

    ``starts`` staggers the field: a variant with start offset *s*
    joins at race step *s* and is advanced to ``target - s`` steps
    (never past its own budget, which runs from its own start), so
    it completes at race step ``s + steps`` — the time the winner is
    chosen by and the race's ``steps`` report — and a loser is billed
    what it did from its start until the winner finished.  All
    offsets 0 (the default) is the race above, bit for bit.  Every
    variant still runs to its own completion or budget unless
    another finishes first, so ``found`` and the winner's outcome
    never depend on the offsets; only who wins, the bills and the
    latency do.  :attr:`width` counts the variants the next round
    advances: a staged race occupies its head's slot alone until the
    field joins.

    An ``engines`` value may be the engine itself or a zero-argument
    callable that builds it; a builder is called on the round its
    variant joins, so a variant whose start is never reached costs
    nothing.  Per-variant state lives in lists indexed by declaration
    position, and a turn walks only the variants that have joined and
    are still alive: a staged race whose field has not joined touches
    its head alone.

    One call to :meth:`round` executes exactly one turn, so a caller
    may interleave many races over a shared pool (the serving layer's
    dispatcher does) without changing any race's outcome — engines are
    generators and don't notice what runs between their turns.
    :func:`interleaved_race` is the run-to-completion wrapper.
    """

    def __init__(
        self,
        engines: Mapping[object, SearchEngine | Callable[[], SearchEngine]],
        budget: Optional[Budget] = None,
        quantum: int = DEFAULT_RACE_QUANTUM,
        starts: Optional[Mapping[object, int]] = None,
    ) -> None:
        if not engines:
            raise ValueError("race needs at least one variant")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.keys = list(engines)
        #: per position: the engine, its builder until it joins, or
        #: None once it completed or was killed
        self._engines: list = list(engines.values())
        #: per position: steps the engine has advanced
        self.consumed = [0] * len(self.keys)
        #: per position: race step at which it joins (0 = from the start)
        offsets = starts or {}
        self.starts = [offsets.get(k, 0) for k in self.keys]
        self.cap = (
            budget.max_steps if budget and budget.max_steps else None
        )
        #: race step by which every variant has completed or been killed
        self.horizon = (
            None if self.cap is None else self.cap + max(self.starts)
        )
        #: alive positions that have joined, in declaration order
        self._running: list[int] = []
        #: positions not joined yet, by start then declaration order
        self._waiting = sorted(
            range(len(self.keys)), key=lambda p: (self.starts[p], p)
        )
        self.quantum = quantum
        self.target = 0
        self.outcome: Optional[RaceOutcome] = None
        #: engine-steps advanced by the most recent round (schedulers
        #: charge actual work, not reconstructed per-variant bills)
        self.last_round_steps = 0
        #: simulated threads the next round occupies: the alive
        #: variants it advances (kept by :meth:`round`, read per tick)
        self.width = sum(1 for s in self.starts if s < quantum)

    def _join(self, target: int) -> None:
        """Move every waiting variant whose start is below ``target``
        into the running field, building its engine."""
        waiting, starts, engines = self._waiting, self.starts, self._engines
        joined = 0
        while joined < len(waiting) and starts[waiting[joined]] < target:
            pos = waiting[joined]
            if callable(engines[pos]):
                engines[pos] = engines[pos]()
            joined += 1
        self._running = sorted(self._running + waiting[:joined])
        del waiting[:joined]

    def round(self) -> Optional[RaceOutcome]:
        """Advance every alive engine one quantum; finish if possible."""
        if self.outcome is not None:
            return self.outcome
        cap, starts, quantum = self.cap, self.starts, self.quantum
        target = self.target + quantum
        if self.horizon is not None and target > self.horizon:
            target = self.horizon
        self.target = target
        waiting = self._waiting
        if waiting and starts[waiting[0]] < target:
            self._join(target)
        engines, consumed = self._engines, self.consumed
        # (completion race step, declaration position, outcome)
        finished: list[tuple[int, int, MatchOutcome]] = []
        advanced = 0
        survivors: Optional[list[int]] = None
        running = self._running
        for i, pos in enumerate(running):
            gen = engines[pos]
            start = starts[pos]
            local = target - start
            if cap is not None and local > cap:
                local = cap
            n = begin = consumed[pos]
            while n < local:
                try:
                    inc = next(gen)
                except StopIteration as stop:
                    finished.append(
                        (start + n, pos, stop.value or MatchOutcome())
                    )
                    gen = None
                    break
                n += 1 if inc is None else inc
            consumed[pos] = n
            advanced += n - begin
            if gen is not None and cap is not None and n >= cap:
                gen.close()
                gen = None
            if gen is None:
                engines[pos] = None
                if survivors is None:
                    survivors = running[:i]
            elif survivors is not None:
                survivors.append(pos)
        if survivors is not None:
            self._running = running = survivors
        self.last_round_steps = advanced
        # the next round's target, short of the horizon: every waiting
        # variant starting below it joins then
        joined = target + quantum
        width = len(running)
        for pos in waiting:
            if starts[pos] >= joined:
                break
            width += 1
        self.width = width
        if finished:
            won, won_pos, outcome = min(finished)
            outcome.steps = won - starts[won_pos]
            charges = []
            for pos, start in enumerate(starts):
                # what the variant did from its start until the winner
                # finished, plus its turn in the final round if it
                # precedes the winner's
                charged = won - start + (1 if pos < won_pos else 0)
                if charged < 0:
                    charged = 0
                elif cap is not None and charged > cap:
                    charged = cap
                charges.append(charged)
            self.close()
            self.outcome = RaceOutcome(
                winner=self.keys[won_pos],
                outcome=outcome,
                steps=won,
                found=outcome.found,
                killed=False,
                overhead_steps=0,
                per_variant_steps=dict(zip(self.keys, charges)),
            )
        elif not running and not waiting:
            # every variant hit its cap: the race is killed when the
            # last-joined variant exhausts its budget
            assert self.horizon is not None
            self.outcome = RaceOutcome(
                winner=None,
                outcome=None,
                steps=self.horizon,
                found=False,
                killed=True,
                overhead_steps=0,
                per_variant_steps=dict.fromkeys(self.keys, cap),
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
        """Close any still-alive engines (kill the losers); a builder
        whose variant never joined is dropped unbuilt."""
        engines = self._engines
        for pos in self._running + self._waiting:
            if not callable(engines[pos]):
                engines[pos].close()
            engines[pos] = None
        self._running = []
        self._waiting = []
        self.width = 0


def interleaved_race(
    engines: Mapping[object, SearchEngine],
    budget: Optional[Budget] = None,
    quantum: int = DEFAULT_RACE_QUANTUM,
    starts: Optional[Mapping[object, int]] = None,
) -> RaceOutcome:
    """Deterministic race: round-robin ``quantum`` steps per engine turn.

    The run-to-completion form of :class:`RaceTask` — see its docstring
    for the winner/charge reconstruction argument and ``starts``.
    """
    return RaceTask(
        engines, budget=budget, quantum=quantum, starts=starts
    ).run_to_completion()


def race_from_costs(
    costs: Mapping[object, CostRecord],
    budget_steps: Optional[int] = None,
    overhead: OverheadModel = OverheadModel(),
    starts: Optional[Mapping[object, int]] = None,
) -> RaceOutcome:
    """Replay a race from per-variant costs (the "simulated" executor).

    The winner is the variant that *completes* first (killed attempts
    never finish); ties break by mapping order.  Experiment harnesses
    use this to evaluate every Ψ variant set from a single per-variant
    cost matrix, exactly as the paper's speedup* metric is defined
    (§3.5).  ``starts`` are :class:`RaceTask`'s offsets: a variant
    joining at race step *s* completes at ``s + steps`` and is billed
    what it did from *s* until the winner completed.  The bills are
    :class:`RaceTask`'s except for its +1 charged to a variant declared
    before the winner, for its turn in the final round.
    """
    if not costs:
        raise ValueError("race needs at least one variant")
    starts = starts or {}
    over = overhead.cost(len(costs))
    winner: Optional[object] = None
    won: Optional[int] = None
    for key, cost in costs.items():
        if cost.killed:
            continue
        done = starts.get(key, 0) + cost.steps
        if won is None or done < won:
            winner, won = key, done
    if won is None:
        if budget_steps is not None:
            last = budget_steps + max(starts.get(k, 0) for k in costs)
        else:
            last = max(starts.get(k, 0) + c.steps for k, c in costs.items())
        return RaceOutcome(
            winner=None,
            outcome=None,
            steps=last + over,
            found=False,
            killed=True,
            overhead_steps=over,
            per_variant_steps={k: c.steps for k, c in costs.items()},
        )
    return RaceOutcome(
        winner=winner,
        outcome=None,
        steps=won + over,
        found=costs[winner].found,
        killed=False,
        overhead_steps=over,
        per_variant_steps={
            k: max(0, min(c.steps, won - starts.get(k, 0)))
            for k, c in costs.items()
        },
    )
