"""Experiment drivers: one function per paper figure/table.

Each driver aggregates a measured cost matrix (:mod:`.runner`) into a
:class:`~repro.tables.Table` with the same rows/series the paper
reports.  :mod:`.figures` declares which drivers draw each paper
figure/table, and docs/BENCHMARKS.md lists each with its bench file.

Conventions shared with the paper (§3.5, §5, §6):

* killed attempts are charged the kill budget before aggregating;
* (max/min) and rewriting-speedup statistics exclude units whose *every*
  instance was killed ("not helped"); the exclusion percentage is
  reported alongside, as the paper does;
* Ψ race times are replayed from the cost matrix via
  :func:`repro.psi.race_from_costs` (winner = cheapest completing
  variant, plus the overhead model's charge).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from ..metrics import (
    Band,
    CostRecord,
    Thresholds,
    band_breakdown,
    classify,
    max_min_ratio,
    summarize_distribution,
)
from ..psi import OverheadModel, race_from_costs
from .config import PAPER_REWRITINGS, RANDOM_INSTANCES
from ..tables import Table

__all__ = [
    "CostMatrix",
    "DEFAULT_OVERHEAD",
    "stragglers_wla_table",
    "band_percentages_table",
    "size_breakdown_table",
    "maxmin_table",
    "rewriting_aet_table",
    "rewriting_hard_pct_table",
    "rewriting_speedup_table",
    "alt_algorithm_speedup_table",
    "psi_race_time",
    "psi_speedup_table",
    "psi_multialg_speedup_table",
    "grapes_psi_by_size_table",
    "killed_pct_table",
]

#: Default thread spawn/sync overhead charged per race (paper §8 calls
#: this "non-trivial"; the ablation bench sweeps it).
DEFAULT_OVERHEAD = OverheadModel(base_steps=0, per_variant_steps=32)


class CostMatrix(Protocol):
    """What experiment drivers need from a measured matrix."""

    dataset: str
    thresholds: Thresholds
    methods: tuple[str, ...]
    variant_names: tuple[str, ...]

    @property
    def units(self) -> range: ...

    def unit_size(self, unit: int) -> int: ...

    def record(self, unit: int, method: str, variant: str) -> CostRecord: ...

    def charged(self, unit: int, method: str, variant: str) -> int: ...


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


# ----------------------------------------------------------------------
# §4 stragglers (Fig 1, Fig 2, Tables 3-4)
# ----------------------------------------------------------------------

def stragglers_wla_table(matrix: CostMatrix, title: str) -> Table:
    """WLA average execution time per band (Fig 1a/b, Fig 2a-c).

    Per method: the average charged steps of easy queries, of 2''-600''
    queries, and of all completed queries — demonstrating that the few
    expensive queries dominate the completed average.
    """
    table = Table(
        title,
        ["method", "easy", "2''-600''", "completed", "units"],
    )
    for method in matrix.methods:
        records = [
            matrix.record(u, method, "Orig") for u in matrix.units
        ]
        bd = band_breakdown(records, matrix.thresholds)
        table.add_row(
            method, bd.avg_easy, bd.avg_mid, bd.avg_completed, bd.count
        )
    table.add_note("WLA-average steps per band, original queries")
    return table


def band_percentages_table(matrix: CostMatrix, title: str) -> Table:
    """Percentage of easy / 2''-600'' / hard queries (Fig 1c, Fig 2d)."""
    table = Table(
        title, ["method", "% easy", "% 2''-600''", "% hard"]
    )
    for method in matrix.methods:
        records = [
            matrix.record(u, method, "Orig") for u in matrix.units
        ]
        bd = band_breakdown(records, matrix.thresholds)
        table.add_row(method, bd.pct_easy, bd.pct_mid, bd.pct_hard)
    return table


def size_breakdown_table(
    matrix: CostMatrix, title: str, sizes: Sequence[int] | None = None
) -> Table:
    """Per-size band breakdown (Tables 3-4).

    The paper reports the smallest (10-edge) and largest (32-edge)
    queries; by default this driver does the same with the workload's
    extreme sizes.
    """
    all_sizes = sorted({matrix.unit_size(u) for u in matrix.units})
    if sizes is None:
        sizes = (
            [all_sizes[0], all_sizes[-1]]
            if len(all_sizes) > 1
            else all_sizes
        )
    table = Table(
        title,
        [
            "size", "method", "AET easy", "% easy",
            "AET 2''-600''", "% 2''-600''", "% hard",
        ],
    )
    for size in sizes:
        units = [u for u in matrix.units if matrix.unit_size(u) == size]
        for method in matrix.methods:
            records = [matrix.record(u, method, "Orig") for u in units]
            bd = band_breakdown(records, matrix.thresholds)
            table.add_row(
                f"{size}e", method, bd.avg_easy, bd.pct_easy,
                bd.avg_mid, bd.pct_mid, bd.pct_hard,
            )
    return table


# ----------------------------------------------------------------------
# §5 isomorphic queries (Fig 3-4, Tables 5-6)
# ----------------------------------------------------------------------

def maxmin_table(
    matrix: CostMatrix,
    title: str,
    instances: tuple[str, ...] = RANDOM_INSTANCES,
) -> Table:
    """(max/min)QLA statistics over isomorphic instances (Fig 3/4, T 5/6).

    Per method: the distribution of ``max_j(t_ij) / min_j(t_ij)`` over
    queries, where ``j`` ranges over random isomorphic instances.
    Units where every instance was killed are excluded and reported.
    """
    table = Table(
        title,
        [
            "method", "avg", "stdDev", "min", "max", "median",
            "% not helped",
        ],
    )
    for method in matrix.methods:
        ratios: list[float] = []
        not_helped = 0
        total = 0
        for u in matrix.units:
            recs = [matrix.record(u, method, i) for i in instances]
            total += 1
            if all(r.killed for r in recs):
                not_helped += 1
                continue
            times = [matrix.charged(u, method, i) for i in instances]
            ratios.append(max_min_ratio(times))
        if not ratios:
            table.add_row(method, *(["-"] * 5), 100.0)
            continue
        s = summarize_distribution(ratios)
        table.add_row(
            method, s.mean, s.stddev, s.minimum, s.maximum, s.median,
            100.0 * not_helped / max(total, 1),
        )
    table.add_note(
        f"instances: {', '.join(instances)}; killed charged at budget "
        "(lower-bound estimation, as in the paper)"
    )
    return table


# ----------------------------------------------------------------------
# §6 rewritings (Fig 6-8, Tables 7-8)
# ----------------------------------------------------------------------

def rewriting_aet_table(matrix: CostMatrix, title: str) -> Table:
    """WLA average execution time per rewriting (Fig 6a/c)."""
    names = ("Orig",) + PAPER_REWRITINGS
    table = Table(title, ["rewriting"] + list(matrix.methods))
    for name in names:
        row: list[object] = [name]
        for method in matrix.methods:
            row.append(
                _mean([
                    matrix.charged(u, method, name) for u in matrix.units
                ])
            )
        table.add_row(*row)
    table.add_note("charged steps (killed at budget), WLA average")
    return table


def rewriting_hard_pct_table(matrix: CostMatrix, title: str) -> Table:
    """Percentage of hard (killed) queries per rewriting (Fig 6b/d)."""
    names = ("Orig",) + PAPER_REWRITINGS
    table = Table(title, ["rewriting"] + list(matrix.methods))
    for name in names:
        row: list[object] = [name]
        for method in matrix.methods:
            killed = sum(
                1
                for u in matrix.units
                if matrix.record(u, method, name).killed
            )
            row.append(100.0 * killed / max(len(matrix.units), 1))
        table.add_row(*row)
    return table


def rewriting_speedup_table(matrix: CostMatrix, title: str) -> Table:
    """speedup*QLA across rewritings (Fig 7/8, Tables 7/8).

    Per method: the distribution over queries of
    ``t_orig / min_j(t_j)`` where ``j`` ranges over the original and the
    five proposed rewritings.  All-killed units excluded and reported.
    """
    names = ("Orig",) + PAPER_REWRITINGS
    table = Table(
        title,
        [
            "method", "avg", "stdDev", "min", "max", "median",
            "% not helped",
        ],
    )
    for method in matrix.methods:
        speedups: list[float] = []
        not_helped = 0
        for u in matrix.units:
            recs = {n: matrix.record(u, method, n) for n in names}
            if all(r.killed for r in recs.values()):
                not_helped += 1
                continue
            t_orig = matrix.charged(u, method, "Orig")
            best = min(matrix.charged(u, method, n) for n in names)
            speedups.append(t_orig / best)
        if not speedups:
            table.add_row(method, *(["-"] * 5), 100.0)
            continue
        s = summarize_distribution(speedups)
        table.add_row(
            method, s.mean, s.stddev, s.minimum, s.maximum, s.median,
            100.0 * not_helped / max(len(matrix.units), 1),
        )
    return table


# ----------------------------------------------------------------------
# §7 algorithm-specific stragglers (Fig 9, Table 9)
# ----------------------------------------------------------------------

def alt_algorithm_speedup_table(
    matrix: CostMatrix,
    title: str,
    algorithm_sets: Sequence[tuple[str, tuple[str, ...]]],
) -> Table:
    """speedup*QLA from alternative algorithms (Fig 9, Table 9).

    For each (set label, algorithms) entry and each member algorithm:
    the distribution of ``t_alg(orig) / min_b(t_b(orig))`` over queries,
    ``b`` ranging over the set.  Shows that a straggler for one
    algorithm is typically easy for another.
    """
    table = Table(
        title,
        [
            "set", "method", "avg", "stdDev", "min", "max", "median",
            "% not helped",
        ],
    )
    for set_label, algs in algorithm_sets:
        for alg in algs:
            speedups: list[float] = []
            not_helped = 0
            for u in matrix.units:
                recs = {b: matrix.record(u, b, "Orig") for b in algs}
                if all(r.killed for r in recs.values()):
                    not_helped += 1
                    continue
                t_alg = matrix.charged(u, alg, "Orig")
                best = min(matrix.charged(u, b, "Orig") for b in algs)
                speedups.append(t_alg / best)
            if not speedups:
                table.add_row(set_label, alg, *(["-"] * 5), 100.0)
                continue
            s = summarize_distribution(speedups)
            table.add_row(
                set_label, alg, s.mean, s.stddev, s.minimum, s.maximum,
                s.median, 100.0 * not_helped / max(len(matrix.units), 1),
            )
    return table


# ----------------------------------------------------------------------
# §8 Ψ-framework (Fig 10-15, Table 10)
# ----------------------------------------------------------------------

def psi_race_time(
    matrix: CostMatrix,
    unit: int,
    members: Sequence[tuple[str, str]],
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> tuple[int, bool]:
    """Replay one Ψ race from the matrix.

    ``members`` are (method, variant) pairs — one per simulated thread.
    Returns (race steps, killed).
    """
    costs = {
        (method, variant): matrix.record(unit, method, variant)
        for method, variant in members
    }
    race = race_from_costs(
        costs,
        budget_steps=matrix.thresholds.budget_steps,
        overhead=overhead,
    )
    return max(1, race.steps), race.killed


def psi_speedup_table(
    matrix: CostMatrix,
    title: str,
    variant_sets: Sequence[tuple[str, tuple[str, ...]]],
    mode: str = "qla",
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> Table:
    """Ψ speedup over the original query, per method (Fig 10/11/13).

    Each variant set races rewritings of the *same* method; speedup* is
    ``t_orig / t_psi`` aggregated QLA (``avg_i`` of ratios) or WLA
    (ratio of averages).
    """
    if mode not in ("qla", "wla"):
        raise ValueError("mode must be 'qla' or 'wla'")
    table = Table(
        title, ["variant set"] + [f"{m}" for m in matrix.methods]
    )
    for set_label, rewritings in variant_sets:
        row: list[object] = [set_label]
        for method in matrix.methods:
            orig_times: list[float] = []
            psi_times: list[float] = []
            for u in matrix.units:
                members = [(method, rw) for rw in rewritings]
                t_psi, _ = psi_race_time(matrix, u, members, overhead)
                orig_times.append(matrix.charged(u, method, "Orig"))
                psi_times.append(t_psi)
            if mode == "qla":
                row.append(
                    _mean([o / p for o, p in zip(orig_times, psi_times)])
                )
            else:
                row.append(_mean(orig_times) / _mean(psi_times))
        table.add_row(*row)
    table.add_note(
        f"speedup*_{mode.upper()} vs the method's original query; "
        f"race overhead {overhead.per_variant_steps} steps/variant"
    )
    return table


def psi_multialg_speedup_table(
    matrix: CostMatrix,
    title: str,
    variant_sets: Sequence[tuple[str, tuple[str, ...]]],
    baseline: str,
    algorithms: tuple[str, ...] = ("GQL", "SPA"),
    mode: str = "qla",
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> Table:
    """Ψ with multiple algorithms vs one vanilla algorithm (Fig 14/15).

    Each set crosses ``algorithms`` with its rewritings; speedup* is
    measured against ``baseline``'s original-query time.
    """
    if mode not in ("qla", "wla"):
        raise ValueError("mode must be 'qla' or 'wla'")
    table = Table(title, ["variant set", f"vs {baseline}"])
    for set_label, rewritings in variant_sets:
        members = [
            (alg, rw) for alg in algorithms for rw in rewritings
        ]
        orig_times: list[float] = []
        psi_times: list[float] = []
        for u in matrix.units:
            t_psi, _ = psi_race_time(matrix, u, members, overhead)
            orig_times.append(matrix.charged(u, baseline, "Orig"))
            psi_times.append(t_psi)
        if mode == "qla":
            value = _mean(
                [o / p for o, p in zip(orig_times, psi_times)]
            )
        else:
            value = _mean(orig_times) / _mean(psi_times)
        table.add_row(set_label, value)
    table.add_note(
        f"speedup*_{mode.upper()} vs vanilla {baseline} "
        f"(algorithms raced: {'/'.join(algorithms)})"
    )
    return table


def grapes_psi_by_size_table(
    matrix: CostMatrix,
    title: str,
    rewritings: tuple[str, ...] = ("ILF", "IND", "DND", "ILF+IND"),
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> Table:
    """Grapes/4 vs Ψ(Grapes/1 × 4 rewritings), by query size (Fig 12).

    Both contenders use 4-way parallelism; the paper's point is that Ψ
    spends its threads better (racing rewritings) than Grapes does
    (splitting components).
    """
    sizes = sorted({matrix.unit_size(u) for u in matrix.units})
    table = Table(
        title, ["size", "Grapes/4", "Psi(Grapes/1 x4 rewritings)"]
    )
    for size in sizes:
        units = [u for u in matrix.units if matrix.unit_size(u) == size]
        grapes4 = _mean(
            [float(matrix.charged(u, "Grapes/4", "Orig")) for u in units]
        )
        psi = _mean([
            float(
                psi_race_time(
                    matrix, u, [("Grapes/1", rw) for rw in rewritings],
                    overhead,
                )[0]
            )
            for u in units
        ])
        table.add_row(f"{size}e", grapes4, psi)
    table.add_note("WLA-average charged steps per query size")
    return table


def killed_pct_table(
    entries: Sequence[tuple[str, str, CostMatrix, Sequence[tuple[str, str]]]],
    title: str = "Table 10: % of killed queries, baseline vs Psi",
    overhead: OverheadModel = DEFAULT_OVERHEAD,
) -> Table:
    """Percentage of killed queries: baseline vs Ψ (Table 10).

    ``entries`` rows are (dataset label, baseline method, matrix,
    Ψ members); a Ψ race is killed only when *all* members are killed.
    """
    table = Table(title, ["dataset", "baseline", "% killed", "% Psi killed"])
    for label, baseline, matrix, members in entries:
        units = list(matrix.units)
        base_killed = sum(
            1 for u in units if matrix.record(u, baseline, "Orig").killed
        )
        psi_killed = sum(
            1 for u in units if psi_race_time(matrix, u, members, overhead)[1]
        )
        table.add_row(
            f"{label} ({baseline})",
            baseline,
            100.0 * base_killed / max(len(units), 1),
            100.0 * psi_killed / max(len(units), 1),
        )
    return table
