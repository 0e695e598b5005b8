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

:data:`DATASETS` is the registry: it names each dataset once, with its
kind (NFV: one graph; FTV: a collection) and its builder's arguments
per scale.  Every roster, kind dispatch and scale list in the tree
reads it, so adding a dataset or a scale is one row here.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from ..graphs import LabeledGraph
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
    "DATASETS",
    "Dataset",
    "DatasetSummary",
    "FTV_DATASETS",
    "NFV_DATASETS",
    "SCALES",
    "build_ftv_graphs",
    "build_graphs",
    "build_nfv_graph",
    "dataset_kind",
    "graphgen_like",
    "human_like",
    "ppi_like",
    "summarize_collection",
    "summarize_graph",
    "wordnet_like",
    "yeast_like",
]

#: ``default`` builds with each builder's own defaults (about a quarter
#: of the paper's sizes); ``tiny`` with its row's ``tiny`` arguments
SCALES: tuple[str, ...] = ("default", "tiny")


@dataclass(frozen=True)
class Dataset:
    """One named dataset: its kind and how to build it."""

    kind: str  # "nfv" (one graph) | "ftv" (a collection)
    builder: Callable[..., Any]
    tiny: Mapping[str, Any]


#: every named dataset, the NFV ones first, each kind in the paper's order
DATASETS: dict[str, Dataset] = {
    "yeast": Dataset("nfv", yeast_like, {"n": 200, "num_labels": 24}),
    "human": Dataset("nfv", human_like, {"n": 150, "num_labels": 12}),
    "wordnet": Dataset("nfv", wordnet_like, {"n": 400}),
    "ppi": Dataset(
        "ftv", ppi_like, {"num_graphs": 3, "avg_nodes": 60, "num_labels": 8}
    ),
    "synthetic": Dataset("ftv", graphgen_like, {
        "num_graphs": 5, "avg_nodes": 40, "density": 0.12, "num_labels": 5,
    }),
}
NFV_DATASETS = tuple(n for n, d in DATASETS.items() if d.kind == "nfv")
FTV_DATASETS = tuple(n for n, d in DATASETS.items() if d.kind == "ftv")


def dataset_kind(name: str) -> str:
    """``"nfv"`` or ``"ftv"``; ValueError for an unknown name."""
    try:
        return DATASETS[name].kind
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; known: {', '.join(DATASETS)}"
        ) from None


def build_graphs(
    name: str, scale: str = "default", kind: str | None = None
) -> list[LabeledGraph]:
    """The stored graphs of ``name`` at ``scale``: an NFV dataset's one
    graph, or an FTV dataset's collection; ValueError for an unknown
    name or scale, or for a dataset not of ``kind`` when one is given."""
    if kind not in (None, dataset_kind(name)):
        raise ValueError(f"{name!r} is not an {kind.upper()} dataset")
    if scale not in SCALES:
        raise ValueError(
            f"unknown scale {scale!r}; known: {', '.join(SCALES)}"
        )
    dataset = DATASETS[name]
    built = dataset.builder(**(dataset.tiny if scale == "tiny" else {}))
    return [built] if dataset.kind == "nfv" else built


def build_nfv_graph(name: str, scale: str = "default") -> LabeledGraph:
    """The stored graph of an NFV dataset."""
    [graph] = build_graphs(name, scale, kind="nfv")
    return graph


def build_ftv_graphs(name: str, scale: str = "default") -> list[LabeledGraph]:
    """The stored graph collection of an FTV dataset."""
    return build_graphs(name, scale, kind="ftv")
