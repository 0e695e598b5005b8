"""Trie structures over label sequences.

Grapes indexes its DFS paths in a **trie**; GGSX in a **suffix tree**
(§3.1.1).  Both are provided here:

* :class:`PathTrie` — plain trie keyed by label; each terminal node
  carries a posting map ``graph_id -> Posting`` (the occurrence count,
  and a slot for the location bitmask that stays empty until Grapes'
  verifier asks for that graph's locations: :meth:`PathTrie.locate`).
* :class:`SuffixTrie` — a trie over every suffix of the inserted
  sequences, which is the uncompressed equivalent of GGSX's suffix tree
  and supports containment lookups of arbitrary sub-paths.

Postings are stored at every node along the inserted sequence, so a
lookup of a *prefix* of an indexed path also succeeds — matching the
"maximal paths of the query are matched with the dataset index, pruning
away unmatched branches" behaviour of both systems.

Filter fast path: alongside the posting maps, every node can serve its
postings as **bitmask posting lists** over stored-graph ids.
:meth:`PathTrie.mask_ge` answers "which graphs contain this feature at
least ``needed`` times" as a single int — the per-node *threshold
masks* are the distinct posting counts in ascending order with
suffix-OR'd graph masks, so one bisect plus one list index replaces a
per-graph dict scan (the tables and the probe are
:func:`repro.matching.masks.threshold_masks` and
:func:`repro.matching.masks.mask_ge`, shared with the GraphQL and
sPath signature filters).  Threshold masks are built lazily on first
probe (or eagerly via :meth:`PathTrie.seal`, which warm catalogs call).
A sealed node that takes a *new graph's* posting keeps its table:
:meth:`PathTrie.insert` patches the count and the graph's bit in where
the table stands, so an incremental add costs the newcomer's own rows.
Only what changes a count the table already holds — a merge into an
existing posting (GGSX's suffix expansion), a :meth:`remove_graph
<PathTrie.remove_graph>`, an :meth:`install <PathTrie.install>` —
unseals the node, and the trie remembers which nodes those are, so
resealing never walks it.

Invariant: ``mask_ge(seq, needed)`` must equal the brute force "OR of
``1 << gid`` over postings with count >= needed" for every node and
threshold — lazily sealed, eagerly sealed, patched and re-sealed tries
all answer identically, and a patched table equals a fresh
``_Node.seal()`` of the grown posting map value for value (the
generated sequences in ``tests/test_properties.py`` probe every state).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from typing import Optional

from ..matching.masks import Thresholds, mask_ge, threshold_masks

__all__ = ["PathTrie", "SuffixTrie", "Posting"]

LabelSeq = tuple


class Posting:
    """Occurrence record of a feature in one graph.

    ``locations`` is a vertex bitmask (bit ``v`` set = vertex ``v`` of
    the stored graph lies on some occurrence).  No build, add or
    restore fills it: it is ``0`` until :meth:`PathTrie.locate` writes
    the graph's masks in, which only Grapes' verifier asks for.
    """

    __slots__ = ("count", "locations")

    def __init__(self, count: int = 0):
        self.count = count
        self.locations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Posting(count={self.count}, "
            f"|loc|={self.locations.bit_count()})"
        )


class _Node:
    __slots__ = ("children", "postings", "thresholds")

    def __init__(self) -> None:
        self.children: dict[object, _Node] = {}
        self.postings: dict[int, Posting] = {}
        #: (ascending distinct counts, suffix-OR graph masks); None
        #: until sealed, patched in place by a new graph's posting
        self.thresholds: Thresholds | None = None

    def seal(self) -> Thresholds:
        """Build the threshold masks from the posting map."""
        by_count: dict[int, int] = {}
        for gid, posting in self.postings.items():
            count = posting.count
            by_count[count] = by_count.get(count, 0) | 1 << gid
        self.thresholds = threshold_masks(by_count)
        return self.thresholds


class PathTrie:
    """Trie over label sequences with per-graph postings.

    Besides the nodes the trie keeps two pieces of running state, both
    maintained by the three mutators (:meth:`insert`, :meth:`install`,
    :meth:`remove_graph`) so that nothing ever walks the trie to
    recover them: the number of nodes that carry postings
    (:attr:`feature_count`), and the set of posting-carrying nodes
    whose threshold table is missing (what :meth:`seal` has to do).
    :attr:`located` is the third: which graphs' postings carry their
    location masks.
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0
        self._features = 0
        #: graph ids whose postings hold their location masks
        #: (:meth:`locate` adds, :meth:`remove_graph` drops) — on the
        #: trie, so every index view sharing it shares the answer
        self.located: set[int] = set()
        #: every node with postings and no table is in here (a node
        #: sealed lazily or emptied since may linger until the next
        #: :meth:`seal`, which skips it)
        self._unsealed: set[_Node] = set()

    def insert(
        self,
        seq: LabelSeq,
        graph_id: int,
        count: int,
        rows: Optional[list] = None,
    ) -> None:
        """Record ``count`` occurrences of ``seq`` in ``graph_id``.

        Postings accumulate on the terminal node of ``seq`` only; prefix
        nodes exist structurally (their own occurrences are inserted
        separately by the census, which emits every prefix as a path in
        its own right).

        A posting of a graph the node has not seen is **patched into a
        sealed table where it stands**: the count is bisected in
        (inheriting the next-higher count's mask when it is new) and
        the graph's bit is OR'd into every mask at or below it — value
        for value what ``_Node.seal()`` builds from the grown posting
        map, without reading the other graphs' postings.  Occurrences
        that merge into a posting the graph already has change a count
        the table holds, so the node unseals instead.

        ``rows`` is an output: when a list is passed, each posting
        *created* here is appended to it as ``(seq, Posting)`` — the
        live object, so merges that follow show in it.
        """
        node = self._root
        for lab in seq:
            nxt = node.children.get(lab)
            if nxt is None:
                nxt = node.children[lab] = _Node()
                self._size += 1
            node = nxt
        postings = node.postings
        posting = postings.get(graph_id)
        if posting is not None:
            posting.count += count
            if node.thresholds is not None:
                node.thresholds = None
                self._unsealed.add(node)
            return
        postings[graph_id] = posting = Posting(count)
        if rows is not None:
            rows.append((seq, posting))
        thresholds = node.thresholds
        if thresholds is None:
            if len(postings) == 1:
                self._features += 1
                self._unsealed.add(node)
            return
        counts, masks = thresholds
        at = bisect_left(counts, count)
        if at == len(counts) or counts[at] != count:
            counts.insert(at, count)
            masks.insert(at, masks[at] if at < len(masks) else 0)
        bit = 1 << graph_id
        for i in range(at + 1):
            masks[i] |= bit

    def install(self, seq: LabelSeq, postings: dict[int, Posting]) -> None:
        """Make ``postings`` the posting map of ``seq``'s node.

        The store-restore unit, the inverse of one
        :meth:`iter_postings` row: one walk per node instead of one
        :meth:`insert` per posting, and deliberately *not* overridden
        by :class:`SuffixTrie` — a dump already lists every expanded
        suffix as a row of its own.
        """
        node = self._root
        for lab in seq:
            nxt = node.children.get(lab)
            if nxt is None:
                nxt = node.children[lab] = _Node()
                self._size += 1
            node = nxt
        self._features += bool(postings) - bool(node.postings)
        node.postings = postings
        node.thresholds = None
        if postings:
            self._unsealed.add(node)

    def remove_graph(self, graph_id: int) -> int:
        """Delete every posting of ``graph_id`` (dynamic-collection
        removes).

        Touched nodes drop their threshold masks — a departed bit
        cannot be patched out of the masks above its count without
        the other postings — so lazy or eager resealing rebuilds them
        without it.  Empty nodes are kept: structure is cheap, and a
        later re-add of the same paths reuses them.  The graph's
        location masks go with its postings.  Returns the number of
        postings deleted.
        """
        self.located.discard(graph_id)
        removed = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if graph_id in node.postings:
                del node.postings[graph_id]
                node.thresholds = None
                if node.postings:
                    self._unsealed.add(node)
                else:
                    self._features -= 1
                removed += 1
            stack.extend(node.children.values())
        return removed

    def locate(self, graph_id: int, locations: dict[LabelSeq, int]) -> None:
        """Write ``graph_id``'s location masks — the ``locations`` of a
        census of the graph whose counts are already inserted — into
        the postings it has, until its :meth:`remove_graph`."""
        for seq, mask in locations.items():
            self._find(seq).postings[graph_id].locations = mask
        self.located.add(graph_id)

    def _find(self, seq: LabelSeq) -> _Node | None:
        node = self._root
        for lab in seq:
            node = node.children.get(lab)
            if node is None:
                return None
        return node

    def lookup(self, seq: LabelSeq) -> dict[int, Posting]:
        """Postings of ``seq`` (empty when the feature is absent)."""
        node = self._find(seq)
        return dict(node.postings) if node else {}

    def mask_ge(self, seq: LabelSeq, needed: int) -> int:
        """Bitmask of graphs containing ``seq`` >= ``needed`` times.

        Bit ``g`` is set iff graph ``g``'s posting count for ``seq`` is
        at least ``needed`` — exactly the set the frequency-pruning
        filter intersects, as one int.  The walk and the threshold
        probe are inlined: this runs once per query feature on the
        filter hot path.
        """
        node = self._root
        for lab in seq:
            node = node.children.get(lab)
            if node is None:
                return 0
        thresholds = node.thresholds
        if thresholds is None:
            if not node.postings:
                return 0
            thresholds = node.seal()
        return mask_ge(thresholds, needed)

    def seal(self) -> int:
        """Eagerly build every missing threshold table (catalog
        warmup, and the reseal after a mutation).

        The mutators record exactly the nodes they leave without a
        table, so this drains that record instead of walking the trie:
        resealing after an add that only patched costs nothing, after
        a remove it costs the nodes the graph was on.  Returns
        :attr:`feature_count`.  Purely a warm-start: lazy per-probe
        sealing produces identical masks.
        """
        for node in self._unsealed:
            if node.thresholds is None and node.postings:
                node.seal()
        self._unsealed.clear()
        return self._features

    @property
    def node_count(self) -> int:
        """Number of non-root trie nodes (index-size statistic)."""
        return self._size

    @property
    def feature_count(self) -> int:
        """Number of nodes that carry postings — the rows
        :meth:`iter_postings` would yield, kept as a running count."""
        return self._features

    def iter_postings(self) -> Iterator[tuple[LabelSeq, dict[int, "Posting"]]]:
        """All (sequence, posting map) pairs that carry postings.

        One walk instead of a ``lookup`` per feature; this is what the
        per-shard routing sketch folds over (see
        :class:`repro.indexing.sketch.FeatureSketch`).  The posting
        maps are the live node dicts — callers must not mutate them.
        """
        stack: list[tuple[_Node, LabelSeq]] = [(self._root, ())]
        while stack:
            node, seq = stack.pop()
            if node.postings:
                yield seq, node.postings
            for lab, child in node.children.items():
                stack.append((child, seq + (lab,)))


class SuffixTrie(PathTrie):
    """Trie over all suffixes of inserted sequences (GGSX-style).

    Inserting ``(a, b, c)`` records postings for ``(a, b, c)``,
    ``(b, c)`` and ``(c,)``, so any *sub*-path of an indexed path can be
    looked up — the structural property GGSX's suffix tree provides.
    """

    def insert(
        self,
        seq: LabelSeq,
        graph_id: int,
        count: int,
        rows: Optional[list] = None,
    ) -> None:
        for start in range(len(seq)):
            super().insert(seq[start:], graph_id, count, rows)
