"""Performance metrics (paper §3.5).

The paper classifies queries by execution time and defines two families
of aggregate metrics:

* **easy** queries complete under 2''; the **2''–600''** band holds the
  rest of the completed queries; **hard** (*killed*) queries exceed the
  10-minute cap.  In this reproduction the currency is engine steps and
  the thresholds live in :class:`Thresholds`.
* ``(max/min)`` — per query, the ratio of the slowest to the fastest
  isomorphic instance; quantifies isomorphic-query variance (§5).
* ``speedup*`` — ``t_orig / T`` where ``T`` is the best alternative
  (cheapest rewriting, cheapest algorithm, or the Ψ race time);
  "what we lose if we choose the original method over the
  alternatives".
* **WLA** (workload-level aggregation) — ``avg(B) / avg(A)``: the
  system view.  **QLA** (query-level average) — ``avg(B_i / A_i)``: the
  user view.  Killed queries are charged the cap before either
  aggregation, per the paper's 600''-convention.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Band",
    "Thresholds",
    "CostRecord",
    "classify",
    "band_breakdown",
    "BandBreakdown",
    "wla_ratio",
    "qla_ratio",
    "max_min_ratio",
    "speedup_values",
    "DistributionSummary",
    "summarize_distribution",
    "percentile",
    "LatencySummary",
    "summarize_latencies",
]


class Band(Enum):
    """Query-time class (paper: easy / 2''-600'' / hard)."""

    EASY = "easy"
    MID = "2''-600''"
    HARD = "hard"


@dataclass(frozen=True)
class Thresholds:
    """Step thresholds standing in for the paper's 2'' and 600'' marks.

    ``easy_steps`` plays the role of 2 seconds; ``budget_steps`` the
    10-minute kill cap.  The default 1:100 ratio mirrors the paper's
    2'':600'' at the reproduction's reduced scale (DESIGN.md §2).
    """

    easy_steps: int = 2_000
    budget_steps: int = 200_000

    def __post_init__(self) -> None:
        if not 0 < self.easy_steps < self.budget_steps:
            raise ValueError("need 0 < easy_steps < budget_steps")


@dataclass(frozen=True)
class CostRecord:
    """Charged cost of one attempt (killed attempts carry the cap)."""

    steps: int
    found: bool
    killed: bool

    def charged(self, thresholds: Thresholds) -> int:
        """Step count entering the metrics (cap when killed)."""
        return self.steps if not self.killed else thresholds.budget_steps


def classify(record: CostRecord, thresholds: Thresholds) -> Band:
    """Band of one attempt."""
    if record.killed:
        return Band.HARD
    if record.steps < thresholds.easy_steps:
        return Band.EASY
    return Band.MID


@dataclass
class BandBreakdown:
    """Per-band average execution times and percentages (Tables 3-4)."""

    avg_easy: float
    avg_mid: float
    avg_completed: float
    pct_easy: float
    pct_mid: float
    pct_hard: float
    count: int

    def as_rows(self) -> list[tuple[str, str]]:
        def fmt(x: float) -> str:
            return "-" if x != x else f"{x:.1f}"  # NaN -> "-"

        return [
            ("AET easy (steps)", fmt(self.avg_easy)),
            ("% of easy", f"{self.pct_easy:.1f}"),
            ("AET 2''-600'' (steps)", fmt(self.avg_mid)),
            ("% of 2''-600''", f"{self.pct_mid:.1f}"),
            ("% of hard", f"{self.pct_hard:.1f}"),
        ]


def band_breakdown(
    records: Sequence[CostRecord], thresholds: Thresholds
) -> BandBreakdown:
    """Aggregate a workload's records into the paper's band summary.

    ``avg_*`` fields are NaN when a band is empty (rendered "-", as the
    paper prints dashes for empty cells).
    """
    if not records:
        raise ValueError("no records")
    easy = [r.steps for r in records if classify(r, thresholds) is Band.EASY]
    mid = [r.steps for r in records if classify(r, thresholds) is Band.MID]
    completed = [
        r.steps for r in records if classify(r, thresholds) is not Band.HARD
    ]
    n = len(records)

    def avg(xs: list[int]) -> float:
        return statistics.mean(xs) if xs else float("nan")

    return BandBreakdown(
        avg_easy=avg(easy),
        avg_mid=avg(mid),
        avg_completed=avg(completed),
        pct_easy=100.0 * len(easy) / n,
        pct_mid=100.0 * len(mid) / n,
        pct_hard=100.0 * (n - len(completed)) / n,
        count=n,
    )


def wla_ratio(
    baseline: Sequence[float], improved: Sequence[float]
) -> float:
    """Workload-level aggregation: ``avg(baseline) / avg(improved)``.

    Expressed as a speedup (>1 means ``improved`` is faster), matching
    the orientation of the paper's speedup*_WLA figures.
    """
    if len(baseline) != len(improved) or not baseline:
        raise ValueError("need equal-length, non-empty sequences")
    denom = statistics.mean(improved)
    if denom == 0:
        raise ValueError("improved sequence averages to zero")
    return statistics.mean(baseline) / denom


def qla_ratio(
    baseline: Sequence[float], improved: Sequence[float]
) -> float:
    """Query-level average: ``avg_i(baseline_i / improved_i)``."""
    if len(baseline) != len(improved) or not baseline:
        raise ValueError("need equal-length, non-empty sequences")
    ratios = []
    for b, i in zip(baseline, improved):
        if i == 0:
            raise ValueError("zero improved time")
        ratios.append(b / i)
    return statistics.mean(ratios)


def max_min_ratio(times: Sequence[float]) -> float:
    """The paper's (max/min) metric over one query's instances."""
    if not times:
        raise ValueError("no instance times")
    lo = min(times)
    if lo == 0:
        raise ValueError("zero minimum time")
    return max(times) / lo


def speedup_values(
    original: Sequence[float], best_alternative: Sequence[float]
) -> list[float]:
    """Per-query speedup* values: ``t_orig / T``  (paper §3.5)."""
    if len(original) != len(best_alternative) or not original:
        raise ValueError("need equal-length, non-empty sequences")
    out = []
    for t, alt in zip(original, best_alternative):
        if alt == 0:
            raise ValueError("zero alternative time")
        out.append(t / alt)
    return out


@dataclass
class DistributionSummary:
    """stdDev / min / max / median, as in the paper's Tables 5-9."""

    mean: float
    stddev: float
    minimum: float
    maximum: float
    median: float

    def as_rows(self) -> list[tuple[str, str]]:
        return [
            ("avg", f"{self.mean:.2f}"),
            ("stdDev", f"{self.stddev:.2f}"),
            ("min", f"{self.minimum:.2f}"),
            ("max", f"{self.maximum:.2f}"),
            ("median", f"{self.median:.2f}"),
        ]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The serving layer reports simulated-step latencies as p50/p95/p99;
    nearest-rank keeps the result an actually-observed latency (and the
    whole pipeline integer-valued), unlike interpolating estimators.

    Edge cases are part of the bench-digest contract and pinned by
    ``tests/test_metrics.py`` (audited for the observability layer):

    * ``n == 0`` raises ``ValueError`` — callers render ``None``, never
      a fabricated zero.
    * ``n == 1`` returns that value for **every** ``q``, including 0.
    * ``n == 2``: ``rank = ceil(q / 50)``, so q in (0, 50] hits the
      smaller value and q in (50, 100] the larger — p50 is the *lower*
      of two samples, not their midpoint.
    * Ties are returned verbatim (the sort is stable and the result is
      always a member of ``values``).
    """
    if not values:
        raise ValueError("no values")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 + mean/max of a latency sample, in steps."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def as_dict(self) -> dict:
        """JSON-friendly form (load reports, service stats)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """Latency summary of one sample (service/bench reporting)."""
    if not values:
        raise ValueError("no values")
    return LatencySummary(
        count=len(values),
        mean=statistics.mean(values),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        maximum=max(values),
    )


def summarize_distribution(values: Sequence[float]) -> DistributionSummary:
    """Summary statistics of a per-query metric distribution."""
    if not values:
        raise ValueError("no values")
    return DistributionSummary(
        mean=statistics.mean(values),
        stddev=statistics.pstdev(values) if len(values) > 1 else 0.0,
        minimum=min(values),
        maximum=max(values),
        median=statistics.median(values),
    )
