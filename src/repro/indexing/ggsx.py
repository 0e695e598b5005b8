"""GGSX FTV index (Bonnici et al., PRIB 2010).

Per the paper's §3.1.1: GGSX indexes DFS paths up to a maximum length in
a **suffix tree**, does *not* keep location information, and after
matching the query's maximal paths against the index (plus frequency
pruning) forms its candidate set — each candidate then undergoes a VF2
decision test **against the whole stored graph**.

The missing location information is exactly why GGSX stragglers are so
much worse than Grapes' in the paper's Figures 1 and 3 (GGSX's
(max/min)QLA on PPI reaches 12,000,000x): every verification faces the
full graph instead of a small relevant component.

Determinism/equivalence: like every FTV index, GGSX filtering is a
pure per-graph predicate over (graph features, query census) — see the
invariants in :mod:`repro.indexing.base` — so candidate sets are
machine-independent and shard-decomposable, and the suffix-trie bitset
path must agree bit-for-bit with the seed filter
(``tests/test_filter_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional

from ..graphs import LabeledGraph
from ..matching import Budget, VF2Plan, drive
from .base import FTVIndex, VerificationReport
from .trie import SuffixTrie

__all__ = ["GGSXIndex"]


class GGSXIndex(FTVIndex):
    """GGSX: suffix-trie path index, whole-graph verification.

    Suffix postings make counts over-estimates for sub-paths (a
    feature inserted as a suffix of several longer paths accumulates
    all their counts), which keeps the filter sound — it can only
    under-prune relative to Grapes, consistent with GGSX forming
    larger candidate sets.
    """

    method_name = "GGSX"

    #: store-restore instantiates this too, but puts dumped rows back
    #: through the raw ``PathTrie.install`` — the dump already holds
    #: every expanded suffix (see :meth:`FTVIndex._restore`)
    trie_class = SuffixTrie

    def verify(
        self,
        query: LabeledGraph,
        graph_id: int,
        budget: Optional[Budget] = None,
        plan: Optional[VF2Plan] = None,
    ) -> VerificationReport:
        """First-match VF2 against the whole stored graph."""
        gen = self._verifier.engine(
            self.graph_index(graph_id), query, max_embeddings=1, plan=plan
        )
        outcome = drive(gen, budget)
        return VerificationReport(
            graph_id=graph_id,
            matched=outcome.found,
            steps=outcome.steps,
            killed=outcome.killed,
            components_tried=1,
        )
