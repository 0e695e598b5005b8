"""The Ψ-framework (Parallel Subgraph Isomorphism framework, paper §8)."""

from .executors import (
    OverheadModel,
    RaceOutcome,
    RaceTask,
    interleaved_race,
    race_from_costs,
)
from .framework import PsiNFV, PsiResult
from .variants import Variant, variants_from_spec

__all__ = [
    "OverheadModel",
    "RaceOutcome",
    "RaceTask",
    "interleaved_race",
    "race_from_costs",
    "PsiNFV",
    "PsiResult",
    "Variant",
    "variants_from_spec",
]
