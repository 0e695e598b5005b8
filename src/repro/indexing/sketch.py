"""Per-shard feature sketches for shard-aware query routing.

A sharded catalog fans a decision query out to every shard that holds
graphs, even when most shards provably cannot contain a match — each
such shard still pays census + filter + race-build work.  The routing
layer avoids that by keeping, per shard, a **count-threshold bitmask
sketch** of the shard's FTV posting lists: a constant-size summary that
can *prove* "no graph on this shard survives this query's filter"
without touching the shard's trie.

Sketch format
-------------
The feature space is hashed into ``num_buckets`` buckets
(:func:`bucket_of`, a deterministic multiplicative mix — never
``hash()``, which varies across platforms).  Each bucket holds one int
whose bit ``i`` means: *some* feature hashing to this bucket occurs at
least :data:`SKETCH_TIERS`\\ ``[i]`` times in *some* graph of the
shard.  Tiers are powers of two, so a feature observed with maximum
per-graph count ``c`` sets bits ``0..tier_index(c)`` — every bucket
mask is downward-closed.

Soundness
---------
The filter keeps a graph iff, for **every** query feature ``f`` with
census count ``n``, the graph contains ``f`` at least ``n`` times.
Let ``t* = tier_index(n)`` (the largest tier ``<= n``).  If the bucket
bit ``t*`` for ``f`` is **clear**, then no feature in that bucket —
in particular ``f`` itself, whether indexed on the shard or absent —
reaches ``SKETCH_TIERS[t*] <= n`` occurrences in any shard graph, so
``mask_ge(f, n)`` is zero and the shard's candidate set is empty:
pruning the shard cannot change any answer.  If the bit is set the
shard *may* answer (a colliding feature or a count between tiers can
set it spuriously), so collisions and tier gaps only ever weaken
pruning, never its soundness.  ``tests/test_routing.py`` drives this
adversarially (one-bucket sketches, unknown labels, an index in a
foreign code space).

Code spaces
-----------
There is one: the collection's
:class:`~repro.indexing.features.LabelInterner`, which every shard
index is built in and the query's census is taken in.  A shard trie's
coded features therefore hash to the buckets the query's do, as they
stand — the sketch folds trie rows and scores query censuses without
translating either.  A sketch folded from an index that codes some
label differently would be meaningless, so the router keeps none for
such a shard (:meth:`repro.service.routing.ShardRouter.refresh`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Optional

from .features import canonical_sequence

__all__ = [
    "SKETCH_TIERS",
    "DEFAULT_SKETCH_BUCKETS",
    "tier_index",
    "bucket_of",
    "FeatureSketch",
]

#: occurrence-count thresholds, one bitmask bit each (powers of two)
SKETCH_TIERS: tuple[int, ...] = tuple(1 << i for i in range(16))

#: default bucket count — 256 ints keep a sketch a few KB per shard
DEFAULT_SKETCH_BUCKETS = 256

_MASK64 = (1 << 64) - 1


def tier_index(count: int) -> int:
    """Index of the largest tier ``<= count`` (``count`` must be >= 1).

    Counts beyond the top tier saturate at the last index — the sketch
    can then no longer distinguish them, which only costs pruning
    tightness, never soundness.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return min(count.bit_length() - 1, len(SKETCH_TIERS) - 1)


def bucket_of(seq: tuple, num_buckets: int) -> int:
    """Deterministic bucket of a coded feature sequence.

    A multiplicative mix over the int codes — *not* Python's ``hash``,
    whose tuple mixing differs between 32- and 64-bit builds; routing
    decisions feed step bills and latencies, which the bench digests
    require to be identical across machines.
    """
    h = 0x345678
    for code in seq:
        h = ((h * 1000003) ^ (code & _MASK64)) & _MASK64
    return h % num_buckets


def _fold(buckets: list[int], pairs: Iterable[tuple[tuple, int]]) -> int:
    """OR ``(coded seq, max per-graph count)`` pairs into ``buckets``,
    in place — the one sketch fold; returns how many.

    The count is the quantity ``mask_ge`` thresholds on, so a pair sets
    its bucket's tiers ``0..tier_index(count)``.  A suffix-trie row is
    a suffix of a canonical path and need not be canonical itself; it
    is folded under the direction a query census would name it by.
    """
    num_buckets = len(buckets)
    folded = 0
    for seq, best in pairs:
        folded += 1
        buckets[bucket_of(canonical_sequence(seq), num_buckets)] |= (
            1 << (tier_index(best) + 1)
        ) - 1
    return folded


class FeatureSketch:
    """Count-threshold bitmask summary of one shard's posting lists."""

    __slots__ = ("buckets", "num_buckets", "graph_count", "feature_count")

    def __init__(
        self,
        buckets: tuple[int, ...],
        graph_count: int,
        feature_count: int,
    ) -> None:
        self.buckets = buckets
        self.num_buckets = len(buckets)
        self.graph_count = graph_count
        self.feature_count = feature_count

    @classmethod
    def from_postings(
        cls,
        items: Iterable[tuple[tuple, Mapping[int, object]]],
        graph_count: int,
        num_buckets: int = DEFAULT_SKETCH_BUCKETS,
    ) -> "FeatureSketch":
        """Fold ``(coded seq, posting map)`` pairs into a sketch.

        ``items`` is what :meth:`repro.indexing.trie.PathTrie.iter_postings`
        yields; each feature contributes its **maximum per-graph
        count** to the fold.
        """
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        buckets = [0] * num_buckets
        features = _fold(
            buckets,
            (
                (seq, max(p.count for p in postings.values()))
                for seq, postings in items
                if postings
            ),
        )
        return cls(tuple(buckets), graph_count, features)

    def with_graph(
        self,
        rows: Iterable[tuple[tuple, object]],
        graph_count: int,
        feature_count: int,
    ) -> "FeatureSketch":
        """The sketch of this shard grown by one graph.

        ``rows`` are the newcomer's ``(coded seq, Posting)``
        rows, as :meth:`repro.indexing.trie.PathTrie.insert` reported
        them.  Sketches are monotone under adds — bucket bits only ever
        gain members — so folding in the newcomer's own counts is sound
        without revisiting the shard's posting lists: every bit
        :meth:`from_postings` would set over the grown shard is set
        here too (the newcomer's features set theirs, all others were
        set before).  The two counts are the grown shard's, read off
        its index by the caller — the trie counts the rows that gave a
        node its first posting — so after any run of adds the
        ``features`` stat is the number of posting-carrying nodes, not
        the sum of every newcomer's.

        Removes are *not* patched: stale bits are a sound
        over-approximation (the shard is merely routed to when it could
        have been pruned), ``features`` is an upper bound until the
        next add, and a
        :meth:`~repro.service.routing.ShardRouter.refresh` tightens
        both back whenever the owner chooses.
        """
        buckets = list(self.buckets)
        _fold(buckets, ((seq, p.count) for seq, p in rows))
        return FeatureSketch(tuple(buckets), graph_count, feature_count)

    def score(self, counts: Mapping[tuple, int]) -> Optional[tuple[int, int]]:
        """Expected-hit score of a query census, or None when pruned.

        ``None`` means *proof*: some query feature's threshold bit is
        clear, so no graph on this shard can survive the filter.
        Otherwise the score is ``(min margin, total margin)`` where a
        feature's margin is how many tiers the shard's sketched maximum
        clears the needed count by — a shard that barely admits every
        feature scores below one with room to spare, which is the
        routing order's expected-first-true heuristic.
        """
        buckets = self.buckets
        num_buckets = self.num_buckets
        min_margin = len(SKETCH_TIERS)
        total = 0
        for seq, needed in counts.items():
            mask = buckets[bucket_of(seq, num_buckets)]
            tier = tier_index(needed)
            if not (mask >> tier) & 1:
                return None
            margin = mask.bit_length() - 1 - tier
            total += margin
            if margin < min_margin:
                min_margin = margin
        return (min_margin, total)

    def as_metrics(self) -> dict:
        """JSON-ready size/coverage statistics (memory reports)."""
        return {
            "buckets": self.num_buckets,
            "occupied": sum(1 for m in self.buckets if m),
            "features": self.feature_count,
            "graphs": self.graph_count,
        }
