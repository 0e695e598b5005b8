"""Graph substrate: labeled graphs, IO, and random generators."""

from .core import GraphError, LabeledGraph, bits_ascending
from .generators import (
    disjoint_union,
    gnm_graph,
    mutate_graph,
    powerlaw_graph,
    sparse_tree_like_graph,
    uniform_labels,
    zipf_labels,
)
from .isomorphism import are_isomorphic
from .io import dumps_gfu, graph_from_json, graph_to_json

__all__ = [
    "GraphError",
    "LabeledGraph",
    "are_isomorphic",
    "disjoint_union",
    "mutate_graph",
    "gnm_graph",
    "powerlaw_graph",
    "sparse_tree_like_graph",
    "uniform_labels",
    "zipf_labels",
    "dumps_gfu",
    "graph_from_json",
    "graph_to_json",
]
