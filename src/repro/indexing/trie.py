"""Path postings of an FTV index, in flat maps keyed by coded path.

Grapes indexes its DFS paths in a **trie**; GGSX in a **suffix tree**
(§3.1.1).  Every question the filter, the codec and the router ask of
either is about one *whole* coded path — its postings, or the graphs
holding it often enough — so both keep one dict keyed by the path, not
a tree of nodes:

* :class:`PathTrie` — ``postings``: coded path → ``{graph_id: count}``.
* :class:`SuffixTrie` — the same map with every suffix of an inserted
  path posted as a key of its own: the uncompressed equivalent of
  GGSX's suffix tree, so any *sub*-path of an indexed path can be
  looked up.

The tree survives as a statistic only: :attr:`PathTrie.node_count` is
the number of distinct prefixes of the live paths, counted when asked.

Filter fast path: :meth:`PathTrie.mask_ge` answers "which graphs
contain this path at least ``needed`` times" as one int — one dict
lookup and one bisect into the path's **threshold table** in
``tables``: the distinct posting counts ascending with suffix-OR'd
graph masks, a pair of tuples (built by
:func:`repro.matching.masks.threshold_masks` and probed by
:func:`repro.matching.masks.mask_ge`, shared with the GraphQL and
sPath signature filters).  ``tables`` is a **probe-time memo**: a
path's table is built the first time a probe asks for it, so a fresh
build, a store restore and a mutation build none, and a served
collection holds tables only for the paths its traffic has probed.
Every mutator — :meth:`post <PathTrie.post>`, :meth:`insert
<PathTrie.insert>`, :meth:`install <PathTrie.install>`,
:meth:`remove_graphs <PathTrie.remove_graphs>` — drops the table of
each path whose row it changes, and the next probe of that path
rebuilds it from the row.  :meth:`PathTrie.seal` builds
every table in one walk over the postings, for callers that want the
whole memo up front.

Grapes' location masks sit beside the postings, per located graph:
``locations[graph_id]`` maps each of that graph's paths — the very key
objects of ``postings``, never copies — to the bitmask of the stored
graph's vertices on the path (:meth:`PathTrie.locate`).

Nothing here holds a collector-tracked object per path: keys are
tuples of ints, rows are ``dict[int, int]`` and tables are tuples of
ints, all of which CPython untracks, so a warm index adds a handful of
containers to a full collection, not several per prefix.

Invariant: ``mask_ge(seq, needed)`` must equal the brute force "OR of
``1 << gid`` over postings with count >= needed" for every path and
threshold, and every table in ``tables`` is the seal of its path's
current row — whichever probes, seals and mutations came before (the
generated sequences in ``tests/test_properties.py`` probe every
state).
"""

from __future__ import annotations

from ..matching.masks import Thresholds, mask_ge, threshold_masks

__all__ = ["PathTrie", "SuffixTrie"]

LabelSeq = tuple


def _seal_row(row: dict[int, int]) -> Thresholds:
    """The threshold table of one path's ``{graph_id: count}`` row."""
    by_count: dict[int, int] = {}
    for gid, count in row.items():
        by_count[count] = by_count.get(count, 0) | 1 << gid
    return threshold_masks(by_count)


class PathTrie:
    """Per-path postings, threshold tables and location masks.

    ``postings`` holds a row for every coded path some graph has (never
    an empty one), ``tables`` the threshold table of every path probed
    (or sealed) since its row last changed, and ``locations`` the masks
    of every located graph.
    """

    def __init__(self) -> None:
        #: coded path -> {graph_id: occurrence count}
        self.postings: dict[LabelSeq, dict[int, int]] = {}
        #: coded path -> threshold table, for the paths probed since
        #: their row last changed (the probe-time memo)
        self.tables: dict[LabelSeq, Thresholds] = {}
        #: graph_id -> {coded path: vertex bitmask}, for the graphs
        #: :meth:`locate` was handed (:meth:`remove_graphs` drops) — on
        #: the trie, so every index view sharing it shares the answer
        self.locations: dict[int, dict[LabelSeq, int]] = {}

    def post(self, graph_id: int, counts: dict[LabelSeq, int]) -> None:
        """Post one graph's census: ``counts`` maps each of its paths
        to its occurrences in ``graph_id``.

        The build and incremental-add unit, one loop over the census.
        ``graph_id`` has no posting yet — ids are fresh, or were
        tombstoned and their postings deleted — so each count is the
        graph's whole entry in its row, and a table is dropped only
        where the path already had a row (a new path has no table).
        """
        postings = self.postings
        drop = self.tables.pop
        for seq, count in counts.items():
            row = postings.get(seq)
            if row is None:
                postings[seq] = {graph_id: count}
            else:
                row[graph_id] = count
                drop(seq, None)

    def insert(self, seq: LabelSeq, graph_id: int, count: int) -> None:
        """Record ``count`` more occurrences of ``seq`` in ``graph_id``;
        the path's table, if a probe built one, is dropped."""
        row = self.postings.get(seq)
        if row is None:
            self.postings[seq] = {graph_id: count}
        else:
            row[graph_id] = row.get(graph_id, 0) + count
            self.tables.pop(seq, None)

    def install(self, rows) -> None:
        """Make each ``(seq, row)`` of ``rows`` that path's postings (an
        empty row deletes the path).

        The store-restore unit, the inverse of reading ``postings``,
        and deliberately *not* overridden by :class:`SuffixTrie` — a
        dump already lists every expanded suffix as a row of its own.
        """
        postings, tables = self.postings, self.tables
        for seq, row in rows:
            tables.pop(seq, None)
            if row:
                postings[seq] = row
            else:
                postings.pop(seq, None)

    def remove_graphs(self, graph_ids) -> int:
        """Delete every posting of each of ``graph_ids``
        (dynamic-collection removes); returns how many.

        One pass over the map, however many graphs go: touched paths
        drop their threshold tables, so the next probe rebuilds them
        without the graphs, and paths left with no posting leave the
        map.  The graphs' location masks go too.
        """
        gone = set(graph_ids)
        for graph_id in gone:
            self.locations.pop(graph_id, None)
        tables = self.tables
        emptied = []
        removed = 0
        for seq, row in self.postings.items():
            hit = row.keys() & gone  # walks the smaller side
            if hit:
                for graph_id in hit:
                    del row[graph_id]
                removed += len(hit)
                tables.pop(seq, None)
                if not row:
                    emptied.append(seq)
        for seq in emptied:
            del self.postings[seq]
        return removed

    def locate(
        self, graph_id: int, locations: dict[LabelSeq, int]
    ) -> dict[LabelSeq, int]:
        """Keep ``graph_id``'s location masks — the ``locations`` of a
        census of the graph whose counts are posted — until its
        :meth:`remove_graphs`; returns the map kept.

        Keyed by the ``postings`` keys themselves, so locating a graph
        adds its masks, not a second copy of each of its paths.
        """
        kept = self.locations[graph_id] = {
            seq: locations[seq]
            for seq, row in self.postings.items()
            if graph_id in row
        }
        return kept

    def mask_ge(self, seq: LabelSeq, needed: int) -> int:
        """Bitmask of graphs containing ``seq`` >= ``needed`` times.

        Bit ``g`` is set iff graph ``g``'s posting count for ``seq`` is
        at least ``needed`` — exactly the set the frequency-pruning
        filter intersects, as one int.  This runs once per query
        feature on the filter hot path: one lookup, one bisect, and on
        the path's first probe since its row changed, one seal.
        """
        table = self.tables.get(seq)
        if table is None:
            row = self.postings.get(seq)
            if row is None:
                return 0
            table = self.tables[seq] = _seal_row(row)
        return mask_ge(table, needed)

    def seal(self) -> int:
        """Build every missing threshold table in one walk over the
        postings; returns the number of paths with postings.

        Nothing served calls this: probes build the tables they need.
        It yields exactly the tables those probes would.
        """
        tables = self.tables
        for seq, row in self.postings.items():
            if seq not in tables:
                tables[seq] = _seal_row(row)
        return len(self.postings)

    @property
    def node_count(self) -> int:
        """Nodes a trie over the live paths would have: the distinct
        non-empty prefixes of the ``postings`` keys, counted on demand
        (an index-size statistic nothing else keeps)."""
        prefixes = set(self.postings)
        prefixes.update(
            seq[:end]
            for seq in self.postings
            for end in range(1, len(seq))
        )
        return len(prefixes)


class SuffixTrie(PathTrie):
    """Postings of all suffixes of inserted sequences (GGSX-style).

    Inserting ``(a, b, c)`` records postings for ``(a, b, c)``,
    ``(b, c)`` and ``(c,)``, so any *sub*-path of an indexed path can be
    looked up — the structural property GGSX's suffix tree provides.
    """

    def post(self, graph_id: int, counts: dict[LabelSeq, int]) -> None:
        """Post each path with its suffixes.  Paths of one graph share
        suffixes, so every posting goes through :meth:`insert`, which
        adds to what the graph already has."""
        for seq, count in counts.items():
            self.insert(seq, graph_id, count)

    def insert(self, seq: LabelSeq, graph_id: int, count: int) -> None:
        for start in range(len(seq)):
            super().insert(seq[start:], graph_id, count)
