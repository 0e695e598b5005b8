"""The seed FTV filter, kept as the test oracle.

This is the filter ``src/repro/indexing/base.py`` had before the
bitset fast path — a label-space path census per call, posting-dict
scans and set intersections, no memoization — moved here verbatim
(modulo the label->code translation the int-keyed trie requires) as
plain functions over an index: :func:`filter_reference` was
``FTVIndex.filter_reference``, :func:`query_census` the label-space
``FTVIndex.query_census`` it alone called,
:func:`feature_locations_reference` is the per-candidate location
re-extraction the seed's ``relevant_components`` performed, and
:func:`stored_locations` is the location side of the seed's build —
every stored graph censused with locations up front, which the index
now derives per graph on first verify.  They are
slow and they are the definition of correct:
``tests/test_filter_equivalence.py`` requires ``FTVIndex.filter`` and
``GrapesIndex.feature_locations`` to return exactly what these do.
Nothing under ``src/`` imports them.
"""

from __future__ import annotations

from typing import Optional

from repro.graphs import LabeledGraph
from repro.indexing import FTVIndex, PathCensus, label_path_census

__all__ = [
    "feature_locations_reference",
    "filter_reference",
    "query_census",
    "stored_locations",
]


def query_census(index: FTVIndex, query: LabeledGraph) -> PathCensus:
    """The query's label-space path features (reference census)."""
    return label_path_census(
        query, index.max_path_length, with_locations=False
    )


def filter_reference(index: FTVIndex, query: LabeledGraph) -> list[int]:
    """The seed filter: label census + posting-dict set algebra."""
    census = query_census(index, query)
    alive: Optional[set[int]] = None
    for seq, needed in census.counts.items():
        coded = index.interner.encode_sequence(seq)
        postings = index.trie.postings.get(coded, {})
        ok = {
            gid for gid, count in postings.items() if count >= needed
        }
        alive = ok if alive is None else (alive & ok)
        if not alive:
            return []
    return sorted(alive) if alive else []


def stored_locations(index: FTVIndex) -> dict[tuple, int]:
    """``(coded path, graph id) -> vertex bitmask`` for every live
    graph of ``index``: the label-space census with locations, taken of
    the whole collection up front, as an eager Grapes build kept it."""
    stored = {}
    for gid in index.live_ids():
        census = label_path_census(
            index.graphs[gid], index.max_path_length, with_locations=True
        )
        for seq, vertices in census.locations.items():
            coded = index.interner.encode_sequence(seq)
            stored[coded, gid] = sum(1 << v for v in vertices)
    return stored


def feature_locations_reference(
    index: FTVIndex, query: LabeledGraph, graph_id: int,
    stored: dict[tuple, int],
) -> int:
    """Vertex bitmask of ``graph_id`` covered by the query's features:
    a fresh query census and a walk of ``stored`` (the index's
    :func:`stored_locations`) per candidate."""
    vertices = 0
    for seq in query_census(index, query).counts:
        coded = index.interner.encode_sequence(seq)
        if coded is not None:
            vertices |= stored.get((coded, graph_id), 0)
    return vertices
