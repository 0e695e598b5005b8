"""Performance metrics: bands, (max/min), summaries (paper §3.5)."""

from .core import (
    Band,
    BandBreakdown,
    CostRecord,
    DistributionSummary,
    LatencySummary,
    Thresholds,
    band_breakdown,
    classify,
    max_min_ratio,
    percentile,
    summarize_distribution,
    summarize_latencies,
)

__all__ = [
    "Band",
    "BandBreakdown",
    "CostRecord",
    "DistributionSummary",
    "LatencySummary",
    "Thresholds",
    "band_breakdown",
    "classify",
    "max_min_ratio",
    "percentile",
    "summarize_distribution",
    "summarize_latencies",
]
