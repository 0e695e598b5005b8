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
sPath signature filters).  Tables are built lazily on first probe, or
eagerly by :meth:`PathTrie.seal`, which warm catalogs call.  A sealed
path that takes a *new graph's* posting gets its table rebuilt from
the table alone by :meth:`PathTrie.insert`, so an incremental add
costs the newcomer's own paths.  Only what changes a count a table
already holds — a merge into an existing posting (GGSX's suffix
expansion), a :meth:`remove_graph <PathTrie.remove_graph>`, an
:meth:`install <PathTrie.install>` — drops the path's table, and the
index remembers which paths those are, so resealing never walks the
map.

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
threshold — lazily sealed, eagerly sealed, patched and re-sealed maps
all answer identically, and a patched table equals a fresh seal of the
grown posting row value for value (the generated sequences in
``tests/test_properties.py`` probe every state).
"""

from __future__ import annotations

from bisect import bisect_left

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
    an empty one), ``tables`` the threshold table of every sealed path
    and ``locations`` the masks of every located graph.  The three
    mutators (:meth:`insert`, :meth:`install`, :meth:`remove_graph`)
    keep one more record, so that nothing walks the map to recover it:
    the paths whose table is missing (what :meth:`seal` has to do).
    """

    def __init__(self) -> None:
        #: coded path -> {graph_id: occurrence count}
        self.postings: dict[LabelSeq, dict[int, int]] = {}
        #: coded path -> threshold table, for the sealed paths
        self.tables: dict[LabelSeq, Thresholds] = {}
        #: graph_id -> {coded path: vertex bitmask}, for the graphs
        #: :meth:`locate` was handed (:meth:`remove_graph` drops) — on
        #: the trie, so every index view sharing it shares the answer
        self.locations: dict[int, dict[LabelSeq, int]] = {}
        #: every path with postings and no table is in here (a path
        #: sealed lazily or emptied since may linger until the next
        #: :meth:`seal`, which skips it)
        self._unsealed: set[LabelSeq] = set()

    def insert(self, seq: LabelSeq, graph_id: int, count: int) -> None:
        """Record ``count`` occurrences of ``seq`` in ``graph_id``.

        A posting of a graph the path has not seen is **patched into a
        sealed table**: the count is bisected in (inheriting the
        next-higher count's mask when it is new) and the graph's bit is
        OR'd into every mask at or below it — value for value what
        :func:`_seal_row` builds from the grown row, without reading the
        other graphs' postings.  Occurrences that merge into a posting
        the graph already has change a count the table holds, so the
        path unseals instead.
        """
        row = self.postings.get(seq)
        if row is None:
            self.postings[seq] = {graph_id: count}
            self._unsealed.add(seq)
        elif graph_id in row:
            row[graph_id] += count
            if self.tables.pop(seq, None) is not None:
                self._unsealed.add(seq)
            return
        else:
            row[graph_id] = count
            table = self.tables.get(seq)
            if table is not None:
                counts, masks = table
                at = bisect_left(counts, count)
                if at == len(counts) or counts[at] != count:
                    counts = counts[:at] + (count,) + counts[at:]
                    inherited = masks[at] if at < len(masks) else 0
                    masks = masks[:at] + (inherited,) + masks[at:]
                bit = 1 << graph_id
                self.tables[seq] = (
                    counts,
                    tuple([mask | bit for mask in masks[:at + 1]])
                    + masks[at + 1:],
                )

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
                self._unsealed.add(seq)
            else:
                postings.pop(seq, None)

    def remove_graph(self, graph_id: int) -> int:
        """Delete every posting of ``graph_id`` (dynamic-collection
        removes); returns how many.

        One pass over the map: touched paths drop their threshold
        tables — a departed bit cannot be patched out of the masks
        above its count without the other postings — so lazy or eager
        resealing rebuilds them without it, and paths left with no
        posting leave the map.  The graph's location masks go too.
        """
        self.locations.pop(graph_id, None)
        tables, unsealed = self.tables, self._unsealed
        emptied = []
        removed = 0
        for seq, row in self.postings.items():
            if graph_id in row:
                del row[graph_id]
                removed += 1
                tables.pop(seq, None)
                if row:
                    unsealed.add(seq)
                else:
                    emptied.append(seq)
        for seq in emptied:
            del self.postings[seq]
        return removed

    def locate(
        self, graph_id: int, locations: dict[LabelSeq, int]
    ) -> dict[LabelSeq, int]:
        """Keep ``graph_id``'s location masks — the ``locations`` of a
        census of the graph whose counts are posted — until its
        :meth:`remove_graph`; returns the map kept.

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
        feature on the filter hot path: one lookup, one bisect.
        """
        table = self.tables.get(seq)
        if table is None:
            row = self.postings.get(seq)
            if row is None:
                return 0
            table = self.tables[seq] = _seal_row(row)
        return mask_ge(table, needed)

    def seal(self) -> int:
        """Eagerly build every missing threshold table (catalog
        warmup, and the reseal after a mutation).

        The mutators record exactly the paths they leave without a
        table, so this drains that record instead of walking the map:
        resealing after an add that only patched costs nothing, after
        a remove it costs the paths the graph was on.  Returns the
        number of paths with postings.  Purely a warm-start: lazy
        per-probe sealing produces identical tables.
        """
        postings, tables = self.postings, self.tables
        for seq in self._unsealed:
            if seq not in tables:
                row = postings.get(seq)
                if row:
                    tables[seq] = _seal_row(row)
        self._unsealed.clear()
        return len(postings)

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

    def insert(self, seq: LabelSeq, graph_id: int, count: int) -> None:
        for start in range(len(seq)):
            super().insert(seq[start:], graph_id, count)
