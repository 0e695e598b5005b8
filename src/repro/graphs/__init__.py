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
from .isomorphism import are_isomorphic, isomorphism_invariant_key
from .io import (
    dumps_edge_list,
    dumps_gfu,
    graph_from_json,
    graph_to_json,
    loads_edge_list,
    loads_gfu,
    read_gfu,
    write_gfu,
)

__all__ = [
    "GraphError",
    "LabeledGraph",
    "are_isomorphic",
    "isomorphism_invariant_key",
    "disjoint_union",
    "mutate_graph",
    "gnm_graph",
    "powerlaw_graph",
    "sparse_tree_like_graph",
    "uniform_labels",
    "zipf_labels",
    "dumps_edge_list",
    "dumps_gfu",
    "graph_from_json",
    "graph_to_json",
    "loads_edge_list",
    "loads_gfu",
    "read_gfu",
    "write_gfu",
]
