"""Random labeled-graph generators.

These are the building blocks for :mod:`repro.datasets`, which assembles
stand-ins for the paper's datasets (PPI, GraphGen synthetic, yeast, human,
wordnet).  Three structural families cover the paper's design space:

* :func:`gnm_graph` — Erdős–Rényi G(n, m); GraphGen, the generator used
  for the paper's synthetic FTV dataset, produces graphs of this flavour
  with target density.
* :func:`powerlaw_graph` — preferential-attachment graphs with heavy-tail
  degree distributions; protein-interaction networks (PPI, yeast, human)
  look like this.
* :func:`sparse_tree_like_graph` — very sparse graphs that are mostly
  tree/path shaped; wordnet (avg degree 2.9, density 3.5e-5) is the
  archetype.

Label assignment is orthogonal to structure: :func:`uniform_labels` or
:func:`zipf_labels` (wordnet's 5 labels with "highly skewed" frequencies —
paper §6.2 — need the latter).

Every function takes an explicit :class:`random.Random` so dataset builds
are reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .core import GraphError, LabeledGraph

__all__ = [
    "uniform_labels",
    "zipf_labels",
    "gnm_graph",
    "powerlaw_graph",
    "sparse_tree_like_graph",
    "disjoint_union",
    "mutate_graph",
]


# ----------------------------------------------------------------------
# label assignment
# ----------------------------------------------------------------------

def uniform_labels(
    n: int, alphabet: Sequence[str], rng: random.Random
) -> list[str]:
    """``n`` labels drawn uniformly from ``alphabet``."""
    if not alphabet:
        raise GraphError("alphabet must be non-empty")
    return [rng.choice(alphabet) for _ in range(n)]


def zipf_labels(
    n: int,
    alphabet: Sequence[str],
    rng: random.Random,
    exponent: float = 1.2,
) -> list[str]:
    """``n`` labels with Zipf-skewed frequencies.

    ``alphabet[0]`` is the most frequent label.  ``exponent`` controls the
    skew; 1.2 reproduces the "small number of labels, highly skewed
    frequency" regime the paper attributes to wordnet.
    """
    if not alphabet:
        raise GraphError("alphabet must be non-empty")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(alphabet))]
    return rng.choices(list(alphabet), weights=weights, k=n)


# ----------------------------------------------------------------------
# structural generators
# ----------------------------------------------------------------------

def gnm_graph(
    n: int,
    m: int,
    labels: Sequence[str],
    rng: random.Random,
    name: str = "",
) -> LabeledGraph:
    """Uniform random graph with exactly ``n`` vertices and ``m`` edges.

    A random spanning tree is laid down first so the result is connected
    (all the paper's stored graphs are queried as connected structures;
    GraphGen also produces connected graphs), then the remaining
    ``m - (n-1)`` edges are sampled uniformly without replacement.
    """
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise GraphError(f"m={m} exceeds max {max_m} for n={n}")
    if n > 1 and m < n - 1:
        raise GraphError(f"m={m} cannot connect n={n} vertices")
    g = LabeledGraph(n, labels, name=name)
    # random spanning tree (random attachment order)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    remaining = m - max(n - 1, 0)
    while remaining > 0:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v)
        remaining -= 1
    return g


def powerlaw_graph(
    n: int,
    edges_per_node: int,
    labels: Sequence[str],
    rng: random.Random,
    name: str = "",
) -> LabeledGraph:
    """Preferential-attachment (Barabási–Albert style) graph.

    Each new vertex attaches to ``edges_per_node`` existing vertices
    chosen proportionally to their current degree, yielding the heavy-tail
    degree distribution seen in the PPI / yeast / human datasets
    (Table 2 reports degree stddevs well above the mean).
    """
    if edges_per_node < 1:
        raise GraphError("edges_per_node must be >= 1")
    if n <= edges_per_node:
        raise GraphError("need n > edges_per_node")
    g = LabeledGraph(n, labels, name=name)
    # seed clique among the first edges_per_node + 1 vertices
    seed = edges_per_node + 1
    for u in range(seed):
        for v in range(u + 1, seed):
            g.add_edge(u, v)
    # repeated-endpoint list implements degree-proportional sampling
    endpoints: list[int] = []
    for u in range(seed):
        endpoints.extend([u] * g.degree(u))
    for u in range(seed, n):
        targets: set[int] = set()
        while len(targets) < edges_per_node:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for v in targets:
            g.add_edge(u, v)
            endpoints.append(v)
        endpoints.extend([u] * edges_per_node)
    return g


def sparse_tree_like_graph(
    n: int,
    extra_edge_fraction: float,
    labels: Sequence[str],
    rng: random.Random,
    name: str = "",
) -> LabeledGraph:
    """A connected graph that is a random tree plus a few chords.

    With ``extra_edge_fraction = 0`` this is exactly a random tree
    (avg degree < 2); small positive values reproduce wordnet's regime
    (avg degree 2.9 means roughly 0.45 extra edges per vertex).
    """
    if extra_edge_fraction < 0:
        raise GraphError("extra_edge_fraction must be >= 0")
    g = LabeledGraph(n, labels, name=name)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        # attach preferentially near the recent frontier to get long,
        # path-like trees (wordnet queries "in their majority are paths")
        lo = max(0, i - 10) if rng.random() < 0.7 else 0
        g.add_edge(order[i], order[rng.randrange(lo, i)])
    extra = int(extra_edge_fraction * n)
    attempts = 0
    while extra > 0 and attempts < 50 * n:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge(u, v)
        extra -= 1
    return g


def disjoint_union(
    graphs: Sequence[LabeledGraph], name: str = ""
) -> LabeledGraph:
    """Disjoint union of several graphs (IDs shifted in order).

    PPI dataset graphs are themselves disconnected collections of
    interaction modules (the paper's Table 1 reports all 20 PPI graphs
    as disconnected); the PPI-like builder unions perturbed module
    templates with this helper.
    """
    total = sum(g.order for g in graphs)
    labels: list = []
    for g in graphs:
        labels.extend(g.labels)
    out = LabeledGraph(total, labels, name=name)
    offset = 0
    for g in graphs:
        for u, v in g.edges():
            out.add_edge(offset + u, offset + v, g.edge_label(u, v))
        offset += g.order
    return out


def mutate_graph(
    g: LabeledGraph,
    rng: random.Random,
    rewire_fraction: float = 0.1,
    relabel_fraction: float = 0.1,
    label_pool: Sequence[str] = (),
    name: str = "",
) -> LabeledGraph:
    """A perturbed copy of ``g``: some edges rewired, some labels swapped.

    Used to derive *families* of related graphs from shared templates —
    the regime of the paper's FTV datasets (protein networks of related
    species share orthologous modules), where one query matches several
    stored graphs and near-misses make verification expensive.
    """
    if not 0 <= rewire_fraction <= 1 or not 0 <= relabel_fraction <= 1:
        raise GraphError("fractions must be in [0, 1]")
    labels = list(g.labels)
    pool = list(label_pool) or sorted(set(labels), key=str)
    for v in range(g.order):
        if rng.random() < relabel_fraction:
            labels[v] = pool[rng.randrange(len(pool))]
    edges = list(g.edges())
    kept: list[tuple[int, int]] = []
    removed = 0
    for u, v in edges:
        if rng.random() < rewire_fraction:
            removed += 1
        else:
            kept.append((u, v))
    out = LabeledGraph(g.order, labels, name=name or g.name)
    seen = set()
    for u, v in kept:
        out.add_edge(u, v)
        seen.add((u, v))
    attempts = 0
    while removed > 0 and attempts < 100 * (removed + 1):
        attempts += 1
        u = rng.randrange(g.order)
        v = rng.randrange(g.order)
        if u == v or out.has_edge(u, v):
            continue
        out.add_edge(u, v)
        removed -= 1
    return out
