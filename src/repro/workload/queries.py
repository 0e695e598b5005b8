"""Query workload generation (paper §3.4).

The paper's generator: "first we select a graph from the dataset
uniformly and at random, and from that graph we select a node uniformly
and at random.  Starting from said node, we generate a query graph by
incrementally adding edges chosen uniformly at random from the set of
all edges adjacent to the resulting query graph, until it reaches the
desired size."  Queries are therefore connected subgraphs of stored
graphs — every query has at least one embedding, which is what makes
killed queries genuinely *straggler* behaviour rather than unsatisfiable
inputs.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass

from ..graphs import GraphError, LabeledGraph

__all__ = [
    "Query",
    "extract_query",
    "generate_workload",
    "TenantMix",
    "MixedQuery",
    "permuted_instance",
    "generate_tenant_stream",
    "default_tenant_mixes",
]


@dataclass(frozen=True)
class Query:
    """One workload query.

    ``source_graph_id`` records which stored graph the query was grown
    from (always 0 for single-graph NFV datasets).
    """

    graph: LabeledGraph
    source_graph_id: int
    num_edges: int
    seed: int

    @property
    def name(self) -> str:
        """The query graph's name (``q<index>_<size>e``)."""
        return self.graph.name


def extract_query(
    graph: LabeledGraph,
    num_edges: int,
    rng: random.Random,
    name: str = "q",
) -> LabeledGraph:
    """Grow one query of ``num_edges`` edges by random edge accretion.

    Raises :class:`GraphError` when the seed vertex's component has too
    few edges to reach the requested size (callers retry with a fresh
    seed vertex).
    """
    if num_edges < 1:
        raise GraphError("queries need at least one edge")
    if graph.size < num_edges:
        raise GraphError("stored graph smaller than requested query")
    start = rng.randrange(graph.order)
    nodes: list[int] = [start]
    node_set = {start}
    chosen: set[tuple[int, int]] = set()
    # frontier: edges adjacent to the current query subgraph
    while len(chosen) < num_edges:
        frontier: list[tuple[int, int]] = []
        for u in nodes:
            for v in graph.neighbors(u):
                e = (u, v) if u < v else (v, u)
                if e not in chosen:
                    frontier.append(e)
        # dedupe, keep deterministic order
        frontier = sorted(set(frontier))
        if not frontier:
            raise GraphError(
                "component exhausted before reaching requested size"
            )
        e = frontier[rng.randrange(len(frontier))]
        chosen.add(e)
        for end in e:
            if end not in node_set:
                node_set.add(end)
                nodes.append(end)
    mapping = {old: new for new, old in enumerate(nodes)}
    query = LabeledGraph(
        len(nodes), [graph.label(v) for v in nodes], name=name
    )
    for u, v in sorted(chosen):
        query.add_edge(mapping[u], mapping[v])
    return query


def generate_workload(
    graphs: list[LabeledGraph],
    num_queries: int,
    num_edges: int,
    seed: int = 0,
) -> list[Query]:
    """Generate ``num_queries`` queries of ``num_edges`` edges each.

    Stored graphs are drawn uniformly; under-sized seed components are
    retried (bounded), per the paper's protocol.
    """
    if not graphs:
        raise GraphError("empty dataset")
    rng = random.Random(seed)
    queries: list[Query] = []
    attempts = 0
    while len(queries) < num_queries:
        attempts += 1
        if attempts > 100 * num_queries:
            raise GraphError(
                f"could not grow {num_queries} queries of {num_edges} "
                "edges; dataset too small"
            )
        gid = rng.randrange(len(graphs))
        try:
            q = extract_query(
                graphs[gid],
                num_edges,
                rng,
                name=f"q{len(queries):03d}_{num_edges}e",
            )
        except GraphError:
            continue
        queries.append(
            Query(
                graph=q,
                source_graph_id=gid,
                num_edges=num_edges,
                seed=seed,
            )
        )
    return queries


# ----------------------------------------------------------------------
# multi-tenant workload mixes (serving layer / load generator)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TenantMix:
    """One tenant's workload profile for the serving layer.

    ``sizes`` are the query-size strata (edges) cycled round-robin, so a
    stream is stratified across the paper's size axis — size is the
    dominant hardness driver (§4), which makes this a hardness
    stratification too.  ``repeat_fraction`` of the stream re-issues an
    earlier query as a *permuted isomorphic instance* (fresh node IDs,
    same motif) — the real-workload pattern iGQ-style result caches
    exploit.  ``weight`` is the tenant's fair-share weight hint.
    """

    tenant: str
    sizes: tuple[int, ...]
    count: int
    repeat_fraction: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.sizes:
            raise GraphError("tenant mix needs at least one size")
        if self.count < 1:
            raise GraphError("tenant mix needs at least one query")
        if not 0.0 <= self.repeat_fraction < 1.0:
            raise GraphError("repeat_fraction must be in [0, 1)")
        if self.weight <= 0:
            raise GraphError("weight must be positive")


@dataclass(frozen=True)
class MixedQuery:
    """One arrival in a multi-tenant stream."""

    tenant: str
    query: Query
    index: int
    is_repeat: bool


def permuted_instance(
    graph: LabeledGraph, rng: random.Random, name: str = ""
) -> LabeledGraph:
    """An isomorphic copy of ``graph`` under a random node-ID shuffle.

    This is how workload repeats arrive in practice: the same motif,
    different surface form (§5's isomorphic instances).  Canonical-form
    result caches must see through exactly this transformation.
    """
    perm = list(range(graph.order))
    rng.shuffle(perm)
    return graph.permuted(perm, name=name or graph.name)


def generate_tenant_stream(
    graphs: list[LabeledGraph],
    mix: TenantMix,
    seed: int = 0,
) -> list[MixedQuery]:
    """One tenant's seeded stream: size-stratified, with repeats.

    Fresh queries cycle through ``mix.sizes``; each subsequent arrival
    re-issues a permuted copy of an earlier one with probability
    ``mix.repeat_fraction``.  Deterministic given (``graphs``, ``mix``,
    ``seed``).
    """
    # string seeds: random.Random seeds from str bytes deterministically
    # (tuple seeds would go through randomized hash())
    rng = random.Random(f"{seed}:{mix.tenant}:stream")
    # worst case (no repeat ever fires) position i draws sizes[i % k]:
    # count the actual draws per size, so duplicated strata work too
    needed = Counter(
        mix.sizes[i % len(mix.sizes)] for i in range(mix.count)
    )
    per_size = {
        size: generate_workload(
            graphs,
            needed[size],
            size,
            seed=zlib.crc32(f"{seed}:{mix.tenant}:{size}".encode()),
        )
        for size in sorted(needed)
    }
    cursor = {size: 0 for size in per_size}
    stream: list[MixedQuery] = []
    for i in range(mix.count):
        if stream and rng.random() < mix.repeat_fraction:
            earlier = stream[rng.randrange(len(stream))].query
            twin = permuted_instance(
                earlier.graph, rng, name=f"{earlier.name}_rep{i}"
            )
            query = Query(
                graph=twin,
                source_graph_id=earlier.source_graph_id,
                num_edges=earlier.num_edges,
                seed=seed,
            )
            stream.append(
                MixedQuery(
                    tenant=mix.tenant, query=query, index=i, is_repeat=True
                )
            )
            continue
        size = mix.sizes[i % len(mix.sizes)]
        query = per_size[size][cursor[size]]
        cursor[size] += 1
        stream.append(
            MixedQuery(
                tenant=mix.tenant, query=query, index=i, is_repeat=False
            )
        )
    return stream


def default_tenant_mixes(
    num_tenants: int,
    queries_per_tenant: int,
    sizes: tuple[int, ...] = (4, 8, 12),
    repeat_fraction: float = 0.35,
) -> list[TenantMix]:
    """A standard stratified multi-tenant mix (CLI / bench default).

    Tenants get staggered size strata (tenant ``t`` starts its size
    cycle at offset ``t``) so concurrent streams are heterogeneous —
    some tenants lean hard, some easy — which is what makes fair-share
    admission observable.
    """
    if num_tenants < 1:
        raise GraphError("need at least one tenant")
    mixes = []
    for t in range(num_tenants):
        rotated = sizes[t % len(sizes):] + sizes[:t % len(sizes)]
        mixes.append(
            TenantMix(
                tenant=f"tenant{t}",
                sizes=rotated,
                count=queries_per_tenant,
                repeat_fraction=repeat_fraction,
                weight=1.0 + (t % 2),  # alternate 1x / 2x shares
            )
        )
    return mixes
