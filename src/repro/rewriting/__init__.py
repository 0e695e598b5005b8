"""Isomorphic query rewritings and their label statistics (paper §6)."""

from .rewritings import (
    ALL_PAPER_REWRITINGS,
    DNDRewriting,
    ILFDNDRewriting,
    ILFINDRewriting,
    ILFRewriting,
    INDRewriting,
    OriginalRewriting,
    RandomRewriting,
    REWRITING_FACTORIES,
    RewrittenQuery,
    Rewriting,
    make_rewriting,
)
from .stats import LabelStats

__all__ = [
    "ALL_PAPER_REWRITINGS",
    "DNDRewriting",
    "ILFDNDRewriting",
    "ILFINDRewriting",
    "ILFRewriting",
    "INDRewriting",
    "OriginalRewriting",
    "RandomRewriting",
    "REWRITING_FACTORIES",
    "RewrittenQuery",
    "Rewriting",
    "make_rewriting",
    "LabelStats",
]
