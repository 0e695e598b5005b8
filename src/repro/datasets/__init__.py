"""Dataset stand-ins for the paper's evaluation datasets.

The paper evaluates on five datasets (Tables 1 and 2):

====================  ==========================================  =========
Paper dataset         Characteristics (paper)                      Builder
====================  ==========================================  =========
PPI                   20 protein networks, 46 labels, avg 4942     :func:`ppi_like`
                      nodes / 26667 edges, avg degree 10.9
Synthetic (GraphGen)  1000 graphs, 20 labels, avg 1100 nodes,      :func:`graphgen_like`
                      density 0.020, avg degree 24.5
yeast                 3112 nodes / 12519 edges, 184 labels,        :func:`yeast_like`
                      avg degree 8.0, moderate label skew
human                 4674 nodes / 86282 edges, 90 labels,         :func:`human_like`
                      avg degree 36.9 (dense)
wordnet               82670 nodes / 120399 edges, 5 labels,        :func:`wordnet_like`
                      avg degree 2.9 (near-tree), heavy label skew
====================  ==========================================  =========

The originals are not redistributable (and wordnet's hosting URL is long
dead), so each builder *generates* a graph (or graph collection) matching
the published statistics — structure family, density, label count and
label-frequency skew — at a configurable ``scale`` (default ¼-ish of the
paper's sizes so full experiment suites run in minutes in pure Python).
The paper's findings are driven exactly by those statistics (see its
§6.2 discussion of why rewritings behave differently on wordnet), so
preserving them preserves behaviour.
"""

from .builders import (
    DatasetSummary,
    graphgen_like,
    human_like,
    ppi_like,
    summarize_collection,
    summarize_graph,
    wordnet_like,
    yeast_like,
)

__all__ = [
    "DatasetSummary",
    "graphgen_like",
    "human_like",
    "ppi_like",
    "summarize_collection",
    "summarize_graph",
    "wordnet_like",
    "yeast_like",
]
