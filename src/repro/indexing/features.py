"""Path-feature extraction for the FTV indexes.

Both FTV methods studied in the paper index "the simplest form of
features — i.e., paths — up to a maximum length", found "in a DFS
manner" (§3.1.1).  This module provides the shared census machinery:

* :func:`label_path_census` enumerates every simple path of up to
  ``max_length`` edges in a graph and aggregates them by **label
  sequence**, counting occurrences and (optionally, for Grapes) the set
  of vertices touched by each feature — the *location information* that
  lets Grapes verify on small connected components instead of whole
  graphs.
* :func:`coded_path_census` is the same census in **interned-int
  space**: labels are first mapped to dense codes by a shared
  :class:`LabelInterner`, so the census keys are small-int tuples
  instead of arbitrary label tuples.  It walks no path: a filter needs
  only counts per label sequence, so it groups each vertex's
  neighbours by label into bitmasks and multiplies popcounts around
  each path's middle vertex (2 edges) or middle edge (3 edges), which
  caps it at :data:`MAX_CENSUS_LENGTH` edges.  A location set is a
  vertex **bitmask** (bit ``v`` = vertex ``v``) from here to the
  postings Grapes' verifier reads it off — :func:`location_vertices`
  is the one decoder, used at the one place that needs vertex ids.
  Only that verifier asks for locations; every build, add and query
  census is counts only.  This is the census every
  index and filter runs on; the label-space census remains as
  the any-length reference implementation the equivalence suite
  checks against.

A label sequence and its reverse denote the same undirected feature, so
sequences are canonicalised to the lexicographically smaller direction.
Both censuses canonicalise in their own key space; the *classes*
(a sequence together with its reverse) are identical either way, which
is all the count/lookup pruning relies on.  Every undirected path of
one edge or more counts once per direction (the reference discovers it
from both ends, the coded census doubles its join), so occurrence
counts are consistently doubled on both the index side and the query
side, keeping the count-based pruning sound.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..graphs import LabeledGraph, bits_ascending

__all__ = [
    "canonical_sequence",
    "label_path_census",
    "coded_path_census",
    "location_vertices",
    "MAX_CENSUS_LENGTH",
    "PathCensus",
    "LabelInterner",
]

LabelSeq = tuple

#: the most edges a :func:`coded_path_census` path has
MAX_CENSUS_LENGTH = 3


def canonical_sequence(labels: LabelSeq) -> LabelSeq:
    """Canonical direction of an undirected label sequence.

    Labels within one dataset are homogeneous (strings in all builders),
    so plain tuple comparison is well-defined; a ``repr`` fallback keeps
    the function total for exotic mixed-label graphs.
    """
    rev = labels[::-1]
    try:
        return labels if labels <= rev else rev
    except TypeError:
        return labels if repr(labels) <= repr(rev) else rev


def location_vertices(mask: int) -> list[int]:
    """Ascending vertex ids of a location bitmask.

    The only mask -> vertices decoder: Grapes extracts relevant
    components through it; everywhere else a location set stays one
    int.
    """
    return list(bits_ascending(mask))


class PathCensus:
    """Census of label paths in one graph.

    Attributes
    ----------
    counts:
        Canonical label sequence -> number of directed occurrences.
    locations:
        Canonical label sequence -> the vertices appearing in any
        occurrence (only populated when ``with_locations``):
        a vertex bitmask from :func:`coded_path_census` (decode with
        :func:`location_vertices`), a frozenset from the reference
        :func:`label_path_census`.
    location_unions:
        Memoized per-stored-graph unions (bitmasks) of the query
        features' location sets (set by
        :meth:`repro.indexing.grapes.GrapesIndex.feature_locations`,
        which takes the census from that index's own memo, so the
        unions are always against one trie) — an isomorphism invariant,
        like the census, so they transfer to every instance sharing it.

    ``counts`` is all a filter needs, and it is not tied to any one
    index: every index of a collection speaks the collection's one
    label code space, so one query census probes them all
    (:meth:`repro.indexing.base.FTVIndex.probe`).
    """

    __slots__ = ("counts", "locations", "location_unions")

    def __init__(
        self,
        counts: dict[LabelSeq, int],
        locations: dict,
    ) -> None:
        self.counts = counts
        self.locations = locations
        self.location_unions: dict[int, int] | None = None


def label_path_census(
    graph: LabeledGraph,
    max_length: int,
    with_locations: bool = False,
) -> PathCensus:
    """Enumerate simple label paths of 0..``max_length`` edges.

    DFS from every vertex; a "path" is a sequence of distinct vertices
    joined by edges.  Length-0 paths are single vertices, so the census
    subsumes plain label-frequency statistics.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    counts: dict[LabelSeq, int] = {}
    locs: dict[LabelSeq, set[int]] = {}

    def visit(labels: LabelSeq, path: tuple[int, ...]) -> None:
        key = canonical_sequence(labels)
        counts[key] = counts.get(key, 0) + 1
        if with_locations:
            locs.setdefault(key, set()).update(path)

    # iterative DFS over simple paths
    for start in graph.vertices():
        stack: list[tuple[tuple[int, ...], LabelSeq]] = [
            ((start,), (graph.label(start),))
        ]
        while stack:
            path, labels = stack.pop()
            visit(labels, path)
            if len(path) - 1 == max_length:
                continue
            tail = path[-1]
            on_path = set(path)
            for w in graph.neighbors(tail):
                if w not in on_path:
                    stack.append(
                        (path + (w,), labels + (graph.label(w),))
                    )
    return PathCensus(
        counts,
        {k: frozenset(v) for k, v in locs.items()},
    )


class LabelInterner:
    """Dense int codes for the labels of a stored-graph collection.

    Codes are assigned in the labels' **natural sort order** (falling
    back to ``repr`` order for label sets that are not mutually
    comparable), so the assignment is deterministic, independent of
    graph order and hash seeds — and, crucially, *order-preserving*:
    for the homogeneous label sets every dataset uses, comparing code
    tuples picks the same canonical path direction
    :func:`canonical_sequence` picks on the labels themselves.  The
    suffix-trie build (GGSX) inserts the suffixes of the canonical
    representative, so this is what keeps coded candidate sets
    bit-for-bit equal to the label-space seed.  Query labels absent
    from the collection are mapped to *fresh negative codes*: negative
    codes can never collide with an indexed feature, so a query
    feature touching an unknown label misses the trie exactly like its
    label-space twin would — no special-casing in the filter.
    """

    __slots__ = ("code_of",)

    def __init__(self, label_sets: Iterable[Iterable]) -> None:
        labels = set()
        for ls in label_sets:
            labels.update(ls)
        try:
            ordered = sorted(labels)
        except TypeError:  # mixed unsortable labels: repr fallback
            ordered = sorted(labels, key=repr)
        self.code_of = {
            lab: code for code, lab in enumerate(ordered)
        }

    def __len__(self) -> int:
        return len(self.code_of)

    @classmethod
    def from_code_order(cls, labels: Sequence) -> "LabelInterner":
        """The interner whose code ``i`` is ``labels[i]`` — how a
        stored collection gets back the code space its index rows were
        written in (:meth:`labels` is the inverse).  The caller vouches
        that the labels are pairwise distinct."""
        interner = cls(())
        interner.code_of = {lab: code for code, lab in enumerate(labels)}
        return interner

    def labels(self) -> list:
        """Every interned label, in code order."""
        return list(self.code_of)

    def extend(self, label_sets: Iterable[Iterable]) -> int:
        """Append codes for labels the collection has not seen yet.

        The dynamic-collection hook: an ``add_graph`` may introduce
        labels, and those get the *next* dense codes (sorted among
        themselves for determinism) rather than re-sorting the whole
        space — existing codes never move, so every already-built
        posting key and sealed mask stays valid.  Probe
        keys are canonicalized in code space on both census paths, so an
        appended (non-sort-order) code is internally consistent; it
        merely picks a different — equally valid — canonical direction
        than a from-scratch interner would.  Returns the number of new
        labels interned.
        """
        fresh = set()
        for ls in label_sets:
            for lab in ls:
                if lab not in self.code_of:
                    fresh.add(lab)
        try:
            ordered = sorted(fresh)
        except TypeError:  # mixed unsortable labels: repr fallback
            ordered = sorted(fresh, key=repr)
        base = len(self.code_of)
        for offset, lab in enumerate(ordered):
            self.code_of[lab] = base + offset
        return len(ordered)

    def encode_vertices(self, labels: Sequence) -> tuple[int, ...]:
        """Per-vertex codes; unknown labels get fresh negative codes."""
        code_of = self.code_of
        fresh: dict = {}
        out = []
        for lab in labels:
            code = code_of.get(lab)
            if code is None:
                code = fresh.get(lab)
                if code is None:
                    code = -1 - len(fresh)
                    fresh[lab] = code
            out.append(code)
        return tuple(out)

    def encode_sequence(self, seq: LabelSeq) -> LabelSeq | None:
        """Canonical coded form of a label sequence.

        ``None`` when any label is unknown to the collection (such a
        feature cannot be indexed).  Used by the reference filter to
        probe the int-keyed trie from a label-space census.
        """
        code_of = self.code_of
        coded = []
        for lab in seq:
            code = code_of.get(lab)
            if code is None:
                return None
            coded.append(code)
        return canonical_sequence(tuple(coded))


def coded_path_census(
    graph: LabeledGraph,
    max_length: int,
    codes: Sequence[int],
    with_locations: bool = False,
) -> PathCensus:
    """The path census of :func:`label_path_census` in interned space.

    ``codes`` is the per-vertex label-code sequence (see
    :class:`LabelInterner`).  The doubled occurrence counts and the
    feature *classes* — and therefore every count/lookup pruning
    decision — match the reference bit for bit; locations come back as
    vertex bitmasks.

    No path is walked.  Every vertex gets its neighbours grouped by
    label code into masks, and the undirected paths (each counted
    twice, once per direction) are counted by joining those masks
    around each path's middle:

    * 0 and 1 edges: per vertex, then per edge;
    * 2 edges ``a-b-d``, around the middle vertex ``b``: with ``nx``
      and ``ny`` its neighbours of label ``x`` and ``y``, ``nx * ny``
      paths when ``x != y`` and ``nx * (nx - 1) / 2`` when ``x = y``;
    * 3 edges ``a-b-c-d``, around the middle edge ``b-c``: with ``A``
      the label-``x`` neighbours of ``b`` but ``c`` and ``D`` the
      label-``y`` neighbours of ``c`` but ``b``, ``|A| * |D| - |A & D|``
      paths, the subtrahend being the triangles where ``a = d``.  When
      that is not zero, every vertex of ``A | D`` is an end of one of
      them: one that is ``D``'s only member, and so no ``a``, is a
      ``d`` for the other members of ``A``.

    A path of more edges has no middle to join around, so
    ``max_length`` is at most :data:`MAX_CENSUS_LENGTH`;
    :func:`label_path_census` takes any length.
    """
    if not 0 <= max_length <= MAX_CENSUS_LENGTH:
        raise ValueError(
            f"max_length must be in 0..{MAX_CENSUS_LENGTH}, got {max_length}"
        )
    counts: dict[LabelSeq, int] = {}
    locs: dict[LabelSeq, int] = {}
    get = counts.get
    lget = locs.get
    # the single-vertex paths, counted once each
    for v, x in enumerate(codes):
        key = (x,)
        counts[key] = get(key, 0) + 1
        if with_locations:
            locs[key] = lget(key, 0) | 1 << v
    if not max_length:
        return PathCensus(counts, locs)
    # the one-edge paths, per edge
    adjacency = graph.adjacency()
    edges = [(b, c) for b, ws in enumerate(adjacency) for c in ws if b < c]
    for b, c in edges:
        cb = codes[b]
        cc = codes[c]
        key = (cb, cc) if cb <= cc else (cc, cb)
        counts[key] = get(key, 0) + 2
        if with_locations:
            locs[key] = lget(key, 0) | 1 << b | 1 << c
    if max_length == 1:
        return PathCensus(counts, locs)
    # per vertex: (code, neighbour mask, popcount), codes ascending
    around = []
    for ws in adjacency:
        masks: dict[int, int] = {}
        for w in ws:
            x = codes[w]
            masks[x] = masks.get(x, 0) | 1 << w
        around.append(
            sorted((x, m, m.bit_count()) for x, m in masks.items())
        )
    # the two-edge paths, around the middle vertex
    for b, items in enumerate(around):
        cb = codes[b]
        bb = 1 << b
        for i, (x, mx, nx) in enumerate(items):
            if nx > 1:
                key = (x, cb, x)
                counts[key] = get(key, 0) + nx * (nx - 1)
                if with_locations:
                    locs[key] = lget(key, 0) | mx | bb
            for y, my, ny in items[i + 1:]:
                key = (x, cb, y)
                counts[key] = get(key, 0) + 2 * nx * ny
                if with_locations:
                    locs[key] = lget(key, 0) | mx | my | bb
    if max_length == 2:
        return PathCensus(counts, locs)
    # the three-edge paths, around the middle edge, oriented so that
    # ``cb <= cc``: then x-cb-cc-y reads canonically forwards exactly
    # when ``x <= y``
    for b, c in edges:
        cb = codes[b]
        cc = codes[c]
        if cb > cc:
            b, c, cb, cc = c, b, cc, cb
        bc = 1 << b | 1 << c
        ends = _without(around[c], cb, 1 << b)
        for x, ma, na in _without(around[b], cc, 1 << c):
            for y, md, nd in ends:
                n = na * nd
                if x == y:
                    shared = ma & md
                    if shared:
                        n -= shared.bit_count()
                        if not n:
                            continue
                    key = (x, cb, cc, x)
                elif x < y:
                    key = (x, cb, cc, y)
                else:
                    key = (y, cc, cb, x)
                counts[key] = get(key, 0) + 2 * n
                if with_locations:
                    locs[key] = lget(key, 0) | ma | md | bc
    return PathCensus(counts, locs)


def _without(
    items: list[tuple[int, int, int]], code: int, bit: int
) -> list[tuple[int, int, int]]:
    """``items`` (one vertex's neighbour masks) minus the neighbour
    ``bit``, whose label code is ``code``."""
    out = list(items)
    for i, (x, m, n) in enumerate(out):
        if x == code:
            if n == 1:
                del out[i]
            else:
                out[i] = (x, m ^ bit, n - 1)
            break
    return out
