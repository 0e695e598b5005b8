"""Subgraph-isomorphism matchers (the paper's NFV methods + VF2).

All matchers share the steppable-engine contract of
:class:`repro.matching.engine.Matcher`: deterministic search whose cost
is measured in steps, drivable under a :class:`Budget`, and raceable by
the Ψ-framework.
"""

from .engine import (
    DEFAULT_MAX_EMBEDDINGS,
    Budget,
    GraphIndex,
    Matcher,
    MatchOutcome,
    drive,
)
from .graphql import GraphQLIndex, GraphQLMatcher
from .quicksi import QIEntry, QuickSIMatcher, build_qi_sequence
from .reference import ReferenceMatcher
from .registry import MATCHER_FACTORIES, available_matchers, make_matcher
from .spath import SPathIndex, SPathMatcher
from .turbo import TurboISOMatcher
from .vf2 import SELECTION_POLICIES, VF2Matcher, VF2Plan

__all__ = [
    "DEFAULT_MAX_EMBEDDINGS",
    "Budget",
    "GraphIndex",
    "Matcher",
    "MatchOutcome",
    "drive",
    "GraphQLIndex",
    "GraphQLMatcher",
    "QIEntry",
    "QuickSIMatcher",
    "build_qi_sequence",
    "ReferenceMatcher",
    "MATCHER_FACTORIES",
    "available_matchers",
    "make_matcher",
    "SPathIndex",
    "SPathMatcher",
    "TurboISOMatcher",
    "VF2Matcher",
    "VF2Plan",
    "SELECTION_POLICIES",
]
