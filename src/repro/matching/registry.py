"""Algorithm registry: look up matchers by their paper short-names."""

from __future__ import annotations

from collections.abc import Callable

from .engine import Matcher
from .graphql import GraphQLMatcher
from .quicksi import QuickSIMatcher
from .reference import ReferenceMatcher
from .spath import SPathMatcher
from .turbo import TurboISOMatcher
from .vf2 import VF2Matcher

__all__ = [
    "MATCHER_FACTORIES", "available_matchers", "make_matcher", "matcher_name",
]

MATCHER_FACTORIES: dict[str, Callable[[], Matcher]] = {
    "VF2": VF2Matcher,
    "QSI": QuickSIMatcher,
    "GQL": GraphQLMatcher,
    "SPA": SPathMatcher,
    "TUR": TurboISOMatcher,
    "REF": ReferenceMatcher,
}


def matcher_name(name: str) -> str:
    """The registry key ``name`` resolves to: names are
    case-insensitive, so ``"gql"`` is ``"GQL"``."""
    key = name.upper()
    if key not in MATCHER_FACTORIES:
        known = ", ".join(sorted(MATCHER_FACTORIES))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}")
    return key


def make_matcher(name: str) -> Matcher:
    """Instantiate a matcher by short name (``"GQL"``, ``"SPA"``, ...)."""
    return MATCHER_FACTORIES[matcher_name(name)]()


def available_matchers() -> tuple[str, ...]:
    """Registered matcher short names."""
    return tuple(sorted(MATCHER_FACTORIES))
