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
  instead of arbitrary label tuples.  It walks no path and no label
  pair: a filter needs only counts per label sequence, so every vertex
  gets one int packing its neighbours' label counts, one fixed-width
  field per label, and the counts are sums of those words around each
  path's middle vertex (2 edges) or middle edge (3 edges) — a
  *packed join*, unpacked once per sum — which caps it at
  :data:`MAX_CENSUS_LENGTH` edges.  A location set is a vertex
  **bitmask** (bit ``v`` = vertex ``v``) from here to the postings
  Grapes' verifier reads it off — :func:`location_vertices` is the one
  decoder, used at the one place that needs vertex ids.  Only that
  verifier asks for locations, which a mask join beside the counts
  finds; every build, add and query census is counts only.  This is
  the census every index and filter runs on; the label-space census
  remains as the any-length reference implementation the equivalence
  suite checks against.

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

import sys
from collections.abc import Iterable, Sequence
from itertools import compress, repeat

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

    No path is walked: the counts are a **packed join**.  The graph's
    labels get local indices ``0..K-1`` in code order, and every vertex
    ``v`` one int, its *word* ``w(v)``: its neighbours' label counts
    ``n_x(v)``, one fixed-width field per local label.  Adding words
    adds all ``K`` fields at once, so each path length is a few sums of
    words — *rows* — keyed by the labels the sum has not spread over
    fields, and every row is unpacked once, field ``y`` to one
    canonical key:

    * 1 edge ``x-y``: row ``x`` sums the words of the label-``x``
      vertices, fields from ``x`` on (the forward reading);
    * 2 edges ``a-b-d``, row ``(lab b, x)``: per neighbour ``a`` of
      ``b`` with label ``x``, ``w(b) - e_x`` (``b``'s other
      neighbours), fields from ``x`` on, which puts
      ``Σ n_x(b) n_y(b)`` in field ``y`` and ``Σ n_x(b) (n_x(b) - 1)``
      in field ``x``;
    * 3 edges ``a-b-c-d``, per middle edge ``b-c`` oriented so that
      ``lab b <= lab c``, row ``(x, lab b, lab c)``: per neighbour
      ``a`` of ``b`` with label ``x``, ``w(c) - e_lab b`` (``c``'s
      neighbours but ``b``) — so ``n_x(b)`` times that word; row
      ``x = lab c`` gives it back once, as ``c`` is not its own
      ``a``, and each common neighbour of ``b`` and ``c`` takes one
      off its own label's field: the triangles, where ``a = d``.
      Fields ``y < x`` are the keys read backwards.

    An edge costs one add per neighbour, never one per label pair.
    ``Σ deg³`` bounds every field of every row (the 3-edge ones by
    ``Σ deg(b) deg(c) <= Σ deg³ / 2``), so the field width is the
    first of 8, 16, 32, 64, ... bits it fits in: read off the graph,
    never fixed.  Locations, when asked for, are joined apart by
    :func:`_path_locations`.

    A path of more edges has no middle to join around, so
    ``max_length`` is at most :data:`MAX_CENSUS_LENGTH`;
    :func:`label_path_census` takes any length.
    """
    if not 0 <= max_length <= MAX_CENSUS_LENGTH:
        raise ValueError(
            f"max_length must be in 0..{MAX_CENSUS_LENGTH}, got {max_length}"
        )
    counts = _packed_counts(graph, max_length, codes)
    locs = _path_locations(graph, max_length, codes) if with_locations else {}
    return PathCensus(counts, locs)


#: memoryview formats of the fields 8, 16, 32 and 64 bits wide
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _unpack(rows: list[int], k: int, width: int) -> Sequence[int]:
    """The fields of packed ``rows``, row after row: ``k`` fields of
    ``width`` bits each, field 0 in a row's lowest bits.  Fields of up
    to 64 bits are read in one cast over all rows."""
    fmt = _FIELD_FORMATS.get(width)
    if fmt is None:  # a field over 64 bits: Σ deg³ >= 2**64
        full = (1 << width) - 1
        shifts = range(0, k * width, width)
        return [row >> shift & full for row in rows for shift in shifts]
    data = b"".join(
        map(int.to_bytes, rows, repeat(k * width // 8), repeat(sys.byteorder))
    )
    return memoryview(data).cast(fmt)


def _packed_counts(
    graph: LabeledGraph, max_length: int, codes: Sequence[int]
) -> dict[LabelSeq, int]:
    """The counts of :func:`coded_path_census`, joined packed."""
    # the single-vertex paths, counted once each
    tally: dict[int, int] = {}
    get = tally.get
    for code in codes:
        tally[code] = get(code, 0) + 1
    counts = {(code,): n for code, n in tally.items()}
    if not max_length:
        return counts
    present = sorted(tally)
    k = len(present)
    for i, code in enumerate(present):
        tally[code] = i  # from here on: code -> local label index
    lab = list(map(tally.__getitem__, codes))
    adjacency = graph.adjacency()
    bound = sum([d * d * d for d in map(len, adjacency)])
    width = 8
    while bound >> width:
        width *= 2
    unit = [1 << width * i for i in lab]
    full = (1 << width * k) - 1
    upper = [full >> s << s for s in range(0, width * k, width)]
    # the rows to unpack: the k one-edge rows, then the nonzero two-
    # and three-edge rows, in the order of ``pair_rows`` and ``heads``
    rows = [0] * k
    words = []
    for i, ws in zip(lab, adjacency):
        word = 0
        for a in ws:
            word += unit[a]
        words.append(word)
        rows[i] += word & upper[i]
    if max_length > 1:
        # row lab b * k + x; a vertex of one neighbour adds nothing
        pairs = [0] * (k * k)
        for b, ws in enumerate(adjacency):
            if len(ws) > 1:
                word = words[b]
                base = lab[b] * k
                for a in ws:
                    x = lab[a]
                    pairs[base + x] += word - unit[a] & upper[x]
        pair_rows = list(compress(range(k * k), pairs))
        rows += map(pairs.__getitem__, pair_rows)
    if max_length > 2:
        # middle label pair lab b * k + lab c -> its k rows, one per x
        triples: dict[int, list[int]] = {}
        masks = graph.adjacency_masks()
        for b, ws in enumerate(adjacency):
            if len(ws) < 2:
                continue
            lb = lab[b]
            own = unit[b]
            mb = masks[b]
            for c in ws:
                lc = lab[c]
                if lc < lb or lc == lb and c < b:
                    continue
                far = words[c] - own
                if not far:
                    continue
                pair = lb * k + lc
                row = triples.get(pair)
                if row is None:
                    row = triples[pair] = [0] * k
                for a in ws:
                    row[lab[a]] += far
                row[lc] -= far
                common = mb & masks[c]
                if common:
                    for a in bits_ascending(common):
                        row[lab[a]] -= unit[a]
        # per nonzero row: x and the codes of x, lab b and lab c
        heads = []
        for pair, row in triples.items():
            b, c = divmod(pair, k)
            cb = present[b]
            cc = present[c]
            for x in compress(range(k), row):
                heads.append((x, present[x], cb, cc))
                rows.append(row[x])
    fields = _unpack(rows, k, width)
    # every undirected path counts once per direction: field x of a
    # one- or two-edge row already counts both, every other field is
    # doubled
    at = k * k
    for i in compress(range(at), fields):
        x = i // k
        y = i - x * k
        n = fields[i]
        counts[present[x], present[y]] = n if x == y else 2 * n
    if max_length == 1:
        return counts
    end = at + len(pair_rows) * k
    for i in compress(range(at, end), fields[at:end]):
        r, y = divmod(i - at, k)
        b, x = divmod(pair_rows[r], k)
        n = fields[i]
        counts[present[x], present[b], present[y]] = n if x == y else 2 * n
    if max_length == 2:
        return counts
    # oriented ``lab b <= lab c``, x-b-c-y reads canonically forwards
    # exactly when ``x <= y``; only a middle of two equal labels is
    # read from both rows x and y
    get = counts.get
    fields = fields[end:]
    for i in compress(range(len(fields)), fields):
        r = i // k
        y = i - r * k
        x, cx, cb, cc = heads[r]
        if x <= y:
            key = (cx, cb, cc, present[y])
        else:
            key = (present[y], cc, cb, cx)
        if cb == cc:
            counts[key] = get(key, 0) + 2 * fields[i]
        else:
            counts[key] = 2 * fields[i]
    return counts


def _path_locations(
    graph: LabeledGraph, max_length: int, codes: Sequence[int]
) -> dict[LabelSeq, int]:
    """The location masks of :func:`coded_path_census`: per canonical
    path, the bitmask of the vertices on any of its occurrences.

    A mask join around each path's middle, as the counts are: every
    vertex gets its neighbours grouped by label code into masks; a
    2-edge path ``x-b-y`` covers ``b`` and its label-``x`` and
    label-``y`` neighbours, and a 3-edge path ``x-b-c-y`` the middle
    edge, the label-``x`` neighbours ``A`` of ``b`` but ``c`` and the
    label-``y`` neighbours ``D`` of ``c`` but ``b`` — unless every
    ``(a, d)`` pair is a triangle ``a = d``, which happens only when
    ``A = D`` is one vertex.  When any pair is a path, every vertex of
    ``A | D`` is an end of one: one that is ``D``'s only member, and so
    no ``a``, is a ``d`` for the other members of ``A``.
    """
    locs: dict[LabelSeq, int] = {}
    get = locs.get
    for v, x in enumerate(codes):
        key = (x,)
        locs[key] = get(key, 0) | 1 << v
    if not max_length:
        return locs
    # the one-edge paths, per edge
    adjacency = graph.adjacency()
    edges = [(b, c) for b, ws in enumerate(adjacency) for c in ws if b < c]
    for b, c in edges:
        cb = codes[b]
        cc = codes[c]
        key = (cb, cc) if cb <= cc else (cc, cb)
        locs[key] = get(key, 0) | 1 << b | 1 << c
    if max_length == 1:
        return locs
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
                locs[key] = get(key, 0) | mx | bb
            for y, my, _ in items[i + 1:]:
                key = (x, cb, y)
                locs[key] = get(key, 0) | mx | my | bb
    if max_length == 2:
        return locs
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
                if x == y:
                    if na * nd == 1 and ma == md:
                        continue
                    key = (x, cb, cc, x)
                elif x < y:
                    key = (x, cb, cc, y)
                else:
                    key = (y, cc, cb, x)
                locs[key] = get(key, 0) | ma | md | bc
    return locs


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
