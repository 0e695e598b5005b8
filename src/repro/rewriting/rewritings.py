"""Isomorphic query rewritings (paper §6).

A rewriting permutes the node IDs of the query graph, producing an
isomorphic query (structure and labels untouched) whose different ID
assignment steers every matcher's heuristics down a different search
order.  The paper proposes five targeted rewritings, all reproduced
here, plus the identity and uniformly-random permutations (the latter
generate the "6 isomorphic instances" of §5):

========  ==========================================================
ILF       node IDs ascend with **increasing label frequency** in the
          stored graph — rare-label vertices get small IDs, so
          ID-ordered matchers touch selective vertices first
IND       IDs ascend with **increasing node degree** (in the query)
DND       IDs ascend with **decreasing node degree**
ILF+IND   ILF, ties broken IND-style
ILF+DND   ILF, ties broken DND-style
========  ==========================================================

Remaining ties are "(utterly) broken in an arbitrary way" (paper §6);
here *arbitrary* resolves to the original node ID, or to a seeded
shuffle when a ``random.Random`` is supplied — which is how several
distinct isomorphic instances of the same rewriting are produced.
"""

from __future__ import annotations

import random
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..graphs import LabeledGraph
from .stats import LabelStats

__all__ = [
    "RewrittenQuery",
    "Rewriting",
    "OriginalRewriting",
    "ILFRewriting",
    "INDRewriting",
    "DNDRewriting",
    "ILFINDRewriting",
    "ILFDNDRewriting",
    "RandomRewriting",
    "REWRITING_FACTORIES",
    "make_rewriting",
    "ALL_PAPER_REWRITINGS",
]


@dataclass(frozen=True)
class RewrittenQuery:
    """A rewritten (isomorphic) query plus the applied permutation.

    ``perm[original_id] == new_id``.  :meth:`translate_embedding` maps an
    embedding of the rewritten query back to original query vertices, so
    callers never observe the permutation.
    """

    graph: LabeledGraph
    perm: tuple[int, ...]
    rewriting: str

    def translate_embedding(self, embedding: dict[int, int]) -> dict[int, int]:
        """Rewritten-query embedding -> original-query embedding."""
        return {
            orig: embedding[new] for orig, new in enumerate(self.perm)
        }


class Rewriting(ABC):
    """A node-ID permutation strategy for query graphs."""

    #: Name as used in the paper's figures ("ILF", "ILF+DND", ...).
    name: str = "rewriting"

    @abstractmethod
    def sort_key(
        self, query: LabeledGraph, u: int, stats: LabelStats
    ) -> tuple:
        """Primary sort key of vertex ``u`` (smaller key -> smaller ID)."""

    def permutation(
        self,
        query: LabeledGraph,
        stats: LabelStats,
        rng: Optional[random.Random] = None,
    ) -> tuple[int, ...]:
        """Compute ``perm[old] = new`` for this rewriting.

        With ``rng`` given, residual ties are broken by a seeded shuffle
        (distinct isomorphic instances); otherwise by original node ID.
        """
        order = list(query.vertices())
        if rng is not None:
            rng.shuffle(order)  # randomises the final tie-break
        order.sort(key=lambda u: self.sort_key(query, u, stats))
        perm = [0] * query.order
        for new_id, old_id in enumerate(order):
            perm[old_id] = new_id
        return tuple(perm)

    def apply(
        self,
        query: LabeledGraph,
        stats: LabelStats,
        rng: Optional[random.Random] = None,
    ) -> RewrittenQuery:
        """Produce the rewritten query."""
        perm = self.permutation(query, stats, rng)
        return RewrittenQuery(
            graph=query.permuted(perm, name=f"{query.name}:{self.name}"),
            perm=perm,
            rewriting=self.name,
        )


class OriginalRewriting(Rewriting):
    """Identity: the query exactly as generated ("Orig" in the paper)."""

    name = "Orig"

    def sort_key(self, query, u, stats):
        return (u,)

    def permutation(self, query, stats, rng=None):
        # identity regardless of rng: "Orig" is always the original IDs
        return tuple(query.vertices())

    def apply(self, query, stats, rng=None):
        """The query itself: the identity needs no permuted copy (nor
        a second kernel frozen for one)."""
        return RewrittenQuery(
            graph=query,
            perm=self.permutation(query, stats, rng),
            rewriting=self.name,
        )


class ILFRewriting(Rewriting):
    """Increasing Label Frequency."""

    name = "ILF"

    def sort_key(self, query, u, stats):
        return (stats.frequency(query.label(u)),)


class INDRewriting(Rewriting):
    """Increasing Node Degree."""

    name = "IND"

    def sort_key(self, query, u, stats):
        return (query.degree(u),)


class DNDRewriting(Rewriting):
    """Decreasing Node Degree."""

    name = "DND"

    def sort_key(self, query, u, stats):
        return (-query.degree(u),)


class ILFINDRewriting(Rewriting):
    """ILF with IND tie-breaking."""

    name = "ILF+IND"

    def sort_key(self, query, u, stats):
        return (stats.frequency(query.label(u)), query.degree(u))


class ILFDNDRewriting(Rewriting):
    """ILF with DND tie-breaking."""

    name = "ILF+DND"

    def sort_key(self, query, u, stats):
        return (stats.frequency(query.label(u)), -query.degree(u))


class RandomRewriting(Rewriting):
    """Uniformly random node-ID permutation.

    Used for the paper's §5 study: "we generated our own isomorphic
    query rewritings ... permute the node IDs" — six random instances
    per query.  Deterministic given ``seed``.
    """

    name = "RND"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.name = f"RND{seed}"

    def sort_key(self, query, u, stats):  # pragma: no cover - unused
        return (u,)

    def permutation(self, query, stats, rng=None):
        local = random.Random(
            f"{self.seed}:{query.order}:{query.size}"
        )
        perm = list(query.vertices())
        local.shuffle(perm)
        return tuple(perm)


REWRITING_FACTORIES = {
    "Orig": OriginalRewriting,
    "ILF": ILFRewriting,
    "IND": INDRewriting,
    "DND": DNDRewriting,
    "ILF+IND": ILFINDRewriting,
    "ILF+DND": ILFDNDRewriting,
}

#: The five proposed rewritings, in the paper's presentation order.
ALL_PAPER_REWRITINGS = ("ILF", "IND", "DND", "ILF+IND", "ILF+DND")


#: the seeded-random family's names: ``RND`` (seed 0) and ``RND<k>``
_RANDOM_NAME = re.compile(r"RND(\d*)")


def make_rewriting(name: str) -> Rewriting:
    """Instantiate a rewriting by paper name (``"ILF+DND"``, ``"RND3"``...);
    any other name is a ``KeyError`` listing the known ones."""
    factory = REWRITING_FACTORIES.get(name)
    if factory is not None:
        return factory()
    random_name = _RANDOM_NAME.fullmatch(name)
    if random_name is None:
        known = ", ".join(sorted(REWRITING_FACTORIES)) + ", RND<k>"
        raise KeyError(f"unknown rewriting {name!r}; known: {known}")
    return RandomRewriting(seed=int(random_name[1] or 0))
