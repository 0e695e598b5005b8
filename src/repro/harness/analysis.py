"""Post-hoc analysis of measured cost matrices.

Tools for interrogating a measurement campaign beyond the paper's fixed
figures: which variant wins where, how much the hard sets of two
algorithms overlap (the quantitative form of the paper's Observation 5
— "stragglers are algorithm-specific"), and per-query diagnosis of a
straggler's escape routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..psi import OverheadModel
from .experiments import CostMatrix, DEFAULT_OVERHEAD, psi_race_time
from ..tables import Table

__all__ = [
    "hard_set",
    "hard_overlap_table",
    "winner_attribution_table",
    "StragglerDiagnosis",
    "diagnose_straggler",
]


def hard_set(
    matrix: CostMatrix, method: str, variant: str = "Orig"
) -> frozenset[int]:
    """Units killed for ``method`` under ``variant``."""
    return frozenset(
        u
        for u in matrix.units
        if matrix.record(u, method, variant).killed
    )


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def hard_overlap_table(
    matrix: CostMatrix,
    title: str = "Hard-set overlap between methods (Jaccard)",
    variant: str = "Orig",
) -> Table:
    """Pairwise overlap of the methods' straggler sets.

    The paper's Observation 5 predicts *low* overlap: a straggler for
    one algorithm is typically easy for another.  Jaccard 0 means fully
    algorithm-specific hard sets; 1 means the same queries are hard for
    both (racing algorithms cannot help those).
    """
    methods = list(matrix.methods)
    sets = {m: hard_set(matrix, m, variant) for m in methods}
    table = Table(
        title,
        ["method", "|hard|"] + [f"J vs {m}" for m in methods],
    )
    for a in methods:
        row: list[object] = [a, len(sets[a])]
        for b in methods:
            row.append(_jaccard(sets[a], sets[b]))
        table.add_row(*row)
    return table


def winner_attribution_table(
    matrix: CostMatrix,
    members: list[tuple[str, str]],
    title: str = "Race winner attribution",
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> Table:
    """How often each (method, variant) member wins the Ψ race.

    Wins are credited to the cheapest completing member (ties to the
    earliest in ``members``, mirroring the race executors).
    """
    wins = {m: 0 for m in members}
    killed_races = 0
    for u in matrix.units:
        best: Optional[tuple[str, str]] = None
        best_steps = None
        for member in members:
            rec = matrix.record(u, member[0], member[1])
            if rec.killed:
                continue
            if best_steps is None or rec.steps < best_steps:
                best = member
                best_steps = rec.steps
        if best is None:
            killed_races += 1
        else:
            wins[best] += 1
    total = len(list(matrix.units))
    table = Table(title, ["member", "wins", "% of races"])
    for member, count in wins.items():
        table.add_row(
            f"{member[0]}-{member[1]}", count,
            100.0 * count / max(total, 1),
        )
    if killed_races:
        table.add_note(
            f"{killed_races} races had no completing member (killed)"
        )
    return table


@dataclass
class StragglerDiagnosis:
    """Escape routes for one straggler unit.

    ``rescuers`` lists the (method, variant) attempts that completed,
    cheapest first; ``psi_steps`` is the race time over all of them.
    """

    unit: int
    method: str
    baseline_steps: int
    rescuers: list[tuple[str, str, int]]
    psi_steps: int
    psi_killed: bool

    @property
    def rescued(self) -> bool:
        """Whether any measured attempt completes this unit."""
        return bool(self.rescuers)

    @property
    def best_speedup(self) -> float:
        """Baseline time over the cheapest rescuer's time."""
        if not self.rescuers:
            return 1.0
        return self.baseline_steps / max(self.rescuers[0][2], 1)


def diagnose_straggler(
    matrix: CostMatrix,
    unit: int,
    method: str,
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> StragglerDiagnosis:
    """Diagnose one unit: who rescues it, and at what cost.

    Considers every (method, variant) cell measured for the unit.
    """
    rescuers: list[tuple[str, str, int]] = []
    members: list[tuple[str, str]] = []
    for m in matrix.methods:
        for v in matrix.variant_names:
            members.append((m, v))
            rec = matrix.record(unit, m, v)
            if not rec.killed:
                rescuers.append((m, v, rec.steps))
    rescuers.sort(key=lambda item: (item[2], item[0], item[1]))
    psi_steps, psi_killed = psi_race_time(
        matrix, unit, members, overhead
    )
    return StragglerDiagnosis(
        unit=unit,
        method=method,
        baseline_steps=matrix.charged(unit, method, "Orig"),
        rescuers=rescuers,
        psi_steps=psi_steps,
        psi_killed=psi_killed,
    )
