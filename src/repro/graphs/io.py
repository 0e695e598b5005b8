"""Graph serialization.

* **GFU** — the multi-graph text format used by the original Grapes and
  GGSX implementations (one file holds a whole FTV dataset); written by
  ``repro workload --out``.
* **JSON** — a faithful round-trip format including edge labels: how
  the store, the journal and the front door encode a graph.

Both writers are deterministic (vertices ascending, edges in
``LabeledGraph.edges()`` order) so serialized datasets diff cleanly.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .core import LabeledGraph

__all__ = [
    "dumps_gfu",
    "graph_to_json",
    "graph_from_json",
]


# ----------------------------------------------------------------------
# GFU (Grapes multi-graph format)
# ----------------------------------------------------------------------

def dumps_gfu(graphs: Iterable[LabeledGraph]) -> str:
    """Serialize ``graphs`` to a GFU-format string.

    Layout per graph::

        #<name>
        <n>
        <label of vertex 0>
        ...
        <label of vertex n-1>
        <m>
        <u> <v>
        ...
    """
    chunks: list[str] = []
    for g in graphs:
        lines = [f"#{g.name}", str(g.order)]
        lines.extend(str(g.label(v)) for v in g.vertices())
        lines.append(str(g.size))
        lines.extend(f"{u} {v}" for u, v in g.edges())
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + ("\n" if chunks else "")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def graph_to_json(g: LabeledGraph) -> str:
    """Round-trip JSON encoding (includes edge labels)."""
    payload = {
        "name": g.name,
        "labels": list(g.labels),
        "edges": [
            [u, v, g.edge_label(u, v)] for u, v in g.edges()
        ],
    }
    return json.dumps(payload, sort_keys=True)


def graph_from_json(text: str) -> LabeledGraph:
    """Inverse of :func:`graph_to_json`."""
    payload = json.loads(text)
    labels: Sequence = payload["labels"]
    g = LabeledGraph(len(labels), labels, name=payload.get("name", ""))
    for u, v, elabel in payload["edges"]:
        g.add_edge(u, v, elabel)
    return g
