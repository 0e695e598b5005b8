"""FTV (filter-then-verify) indexed subgraph query processing.

Grapes and GGSX, the two FTV methods the paper identified as the best
performers in its earlier study [9], plus the shared path-feature and
trie machinery.

Invariants this package maintains (the serving layer builds on both):

* **Filtering is a per-graph predicate** — whether a stored graph
  survives the filter depends only on that graph's own features and
  the query, never on which other graphs share the index.  This is
  what makes an index over any *subset* of a collection (a catalog
  shard) return exactly the global candidate set restricted to the
  subset, so serving agrees bit-for-bit over any number of shards.
* **Everything is deterministic** — candidate ids come out ascending
  and duplicate-free, censuses and trie probes are pure functions of
  the (graphs, query) pair, and the bitset fast path is proven
  equivalent to the reference set algebra in
  ``tests/test_filter_equivalence.py``.
"""

from .base import FTVIndex, FTVQueryResult, VerificationReport
from .features import (
    LabelInterner,
    PathCensus,
    canonical_sequence,
    coded_path_census,
    label_path_census,
    location_vertices,
)
from .ggsx import GGSXIndex
from .grapes import GrapesIndex
from .sketch import SKETCH_TIERS, FeatureSketch, bucket_of, tier_index
from .trie import PathTrie, Posting, SuffixTrie

#: catalog / store method token -> index class
FTV_INDEX_CLASSES = {"Grapes": GrapesIndex, "GGSX": GGSXIndex}

__all__ = [
    "FTV_INDEX_CLASSES",
    "FeatureSketch",
    "SKETCH_TIERS",
    "bucket_of",
    "tier_index",
    "FTVIndex",
    "FTVQueryResult",
    "VerificationReport",
    "LabelInterner",
    "PathCensus",
    "canonical_sequence",
    "coded_path_census",
    "label_path_census",
    "location_vertices",
    "GGSXIndex",
    "GrapesIndex",
    "PathTrie",
    "Posting",
    "SuffixTrie",
]
