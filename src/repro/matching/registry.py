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

__all__ = ["MATCHER_FACTORIES", "make_matcher", "available_matchers"]

MATCHER_FACTORIES: dict[str, Callable[[], Matcher]] = {
    "VF2": VF2Matcher,
    "QSI": QuickSIMatcher,
    "GQL": GraphQLMatcher,
    "SPA": SPathMatcher,
    "TUR": TurboISOMatcher,
    "REF": ReferenceMatcher,
}


def make_matcher(name: str) -> Matcher:
    """Instantiate a matcher by short name (``"GQL"``, ``"SPA"``, ...)."""
    try:
        factory = MATCHER_FACTORIES[name.upper()]
    except KeyError:
        known = ", ".join(sorted(MATCHER_FACTORIES))
        raise KeyError(f"unknown matcher {name!r}; known: {known}") from None
    return factory()


def available_matchers() -> tuple[str, ...]:
    """Registered matcher short names."""
    return tuple(sorted(MATCHER_FACTORIES))
