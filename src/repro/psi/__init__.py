"""The Ψ-framework (Parallel Subgraph Isomorphism framework, paper §8)."""

from .advisor import RaceObservation, VariantAdvisor, query_features
from .executors import (
    AttemptCost,
    OverheadModel,
    RaceOutcome,
    RaceTask,
    interleaved_race,
    race_from_costs,
)
from .framework import PsiFTV, PsiFTVQueryResult, PsiNFV, PsiResult
from .variants import Variant, variants_from_spec

__all__ = [
    "RaceObservation",
    "VariantAdvisor",
    "query_features",
    "AttemptCost",
    "OverheadModel",
    "RaceOutcome",
    "RaceTask",
    "interleaved_race",
    "race_from_costs",
    "PsiFTV",
    "PsiFTVQueryResult",
    "PsiNFV",
    "PsiResult",
    "Variant",
    "variants_from_spec",
]
