"""Core labeled-graph data structure.

The paper (Definition 1) works with graphs ``G = (V, E, L)`` where ``L``
assigns a label to every vertex (and, in the general definition, every
edge).  All datasets used in the paper's evaluation are vertex-labeled,
undirected, and without parallel edges, so :class:`LabeledGraph` models
exactly that, with optional edge labels for completeness.

Vertices are identified by dense integer node IDs ``0 .. n-1``.  Node IDs
matter a great deal in this reproduction: the paper's key observation is
that the *assignment of node IDs* (an arbitrary choice, since permuting
IDs yields an isomorphic graph) changes the search order of every studied
algorithm and hence its running time by orders of magnitude.  All
tie-breaking in this library is therefore by node ID, and
:meth:`LabeledGraph.permuted` is the primitive on which every query
rewriting in :mod:`repro.rewriting` is built.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Optional

Label = Hashable
Edge = tuple[int, int]

__all__ = ["LabeledGraph", "GraphError", "bits_ascending"]


def bits_ascending(mask: int) -> Iterator[int]:
    """Set-bit positions of ``mask`` in ascending order.

    The shared decoding loop for every bitmask in the repo — adjacency
    masks, matcher candidate bitsets, and the FTV posting bitsets all
    speak "bit ``i`` means vertex/graph ``i``".
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


def _normalize_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form for an undirected edge."""
    return (u, v) if u <= v else (v, u)


class _FrozenKernel:
    """Immutable derived structures, built once per (re)freeze.

    The matchers spend essentially all of their time probing adjacency
    and labels, so freezing materialises everything those inner loops
    need into flat, index-by-node-ID structures:

    * ``neighbors`` — CSR-style tuple-of-tuples, ascending IDs;
    * ``adj_masks`` — per-vertex neighbourhood as a bitmask int, so
      "is ``c`` adjacent to every vertex in ``S``" is one ``&``/``==``
      against the precomputed mask of ``S``;
    * ``label_buckets`` — label -> ascending vertex tuple (the NFV
      "vertex label list");
    * ``label_codes`` / ``code_of`` — labels interned to dense ints in
      first-bucket order, so label equality in hot loops is an int
      compare instead of arbitrary-object ``__eq__``.
    """

    __slots__ = (
        "labels",
        "neighbors",
        "adj_masks",
        "label_buckets",
        "label_codes",
        "code_of",
    )

    def __init__(self, labels: list[Label], adj: list[set[int]]) -> None:
        self.labels = tuple(labels)
        self.neighbors = tuple(tuple(sorted(s)) for s in adj)
        self.adj_masks = tuple(
            sum(1 << w for w in s) for s in adj
        )
        buckets: dict[Label, list[int]] = {}
        for v, lab in enumerate(self.labels):
            buckets.setdefault(lab, []).append(v)
        self.label_buckets = {
            lab: tuple(vs) for lab, vs in buckets.items()
        }
        self.code_of = {
            lab: code for code, lab in enumerate(self.label_buckets)
        }
        codes = self.code_of
        self.label_codes = tuple(codes[lab] for lab in self.labels)


class LabeledGraph:
    """An undirected, vertex-labeled graph with dense integer node IDs.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0 .. n-1``.
    labels:
        Sequence of ``n`` vertex labels (any hashable; datasets in the
        paper use small strings or ints).
    name:
        Optional graph name (used by multi-graph datasets and IO).

    The structure is build-then-query: edges are added with
    :meth:`add_edge`, after which the graph is typically treated as
    immutable.  Neighbour iteration is always in ascending node-ID order,
    which keeps every algorithm in :mod:`repro.matching` deterministic.
    """

    __slots__ = (
        "_labels",
        "_adj",
        "_edge_labels",
        "_m",
        "name",
        "_frozen",
        "_index_memo",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        labels: Sequence[Label],
        name: str = "",
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        if len(labels) != n:
            raise GraphError(
                f"expected {n} labels, got {len(labels)}"
            )
        self._labels: list[Label] = list(labels)
        # adjacency sets; the fast-path kernel (CSR tuples, bitmasks,
        # label buckets) is materialised lazily on freeze
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._edge_labels: dict[Edge, Label] = {}
        self._m = 0
        self.name = name
        self._frozen: Optional[_FrozenKernel] = None
        # matcher-index memo managed by repro.caching.PrepareCache;
        # living on the graph ties the memo's lifetime to the graph's
        self._index_memo: Optional[dict] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[Label],
        edges: Iterable[Edge],
        name: str = "",
    ) -> "LabeledGraph":
        """Build a graph from a label sequence and an edge iterable."""
        g = cls(len(labels), labels, name=name)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int, label: Label = None) -> None:
        """Add the undirected edge ``{u, v}``.

        Self-loops and duplicate edges are rejected: none of the paper's
        datasets contain them and the matching algorithms assume simple
        graphs.
        """
        n = self.order
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop on vertex {u} not allowed")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)
        if label is not None:
            self._edge_labels[_normalize_edge(u, v)] = label
        self._m += 1
        self._frozen = None
        self._index_memo = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of vertices."""
        return len(self._labels)

    @property
    def size(self) -> int:
        """Number of edges."""
        return self._m

    def label(self, v: int) -> Label:
        """Label of vertex ``v``."""
        return self._labels[v]

    @property
    def labels(self) -> tuple[Label, ...]:
        """All vertex labels, indexed by node ID.

        Served from the frozen kernel when one exists; a pure label
        read never forces kernel construction.
        """
        kern = self._frozen
        return kern.labels if kern is not None else tuple(self._labels)

    def edge_label(self, u: int, v: int) -> Label:
        """Label of edge ``{u, v}`` (``None`` if unlabeled)."""
        return self._edge_labels.get(_normalize_edge(u, v))

    @property
    def has_edge_labels(self) -> bool:
        """Whether any edge carries a label (else every
        :meth:`edge_label` is ``None``)."""
        return bool(self._edge_labels)

    def neighbor_lists(self) -> list[list[int]]:
        """Every vertex's neighbours, in no particular order, read
        without freezing the kernel: for a one-pass reader such as the
        canonical query key, which would not use the kernel again."""
        return [list(s) for s in self._adj]

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``."""
        return len(self._adj[v])

    def kernel(self) -> _FrozenKernel:
        """The frozen fast-path kernel (built lazily, reset by mutation)."""
        kern = self._frozen
        if kern is None:
            kern = self._frozen = _FrozenKernel(self._labels, self._adj)
        return kern

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of ``v`` in ascending node-ID order."""
        return self.kernel().neighbors[v]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """CSR-style adjacency: ``adjacency()[v]`` == ``neighbors(v)``."""
        return self.kernel().neighbors

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbourhoods as bitmask ints.

        ``adjacency_masks()[v] >> w & 1`` tests the edge ``{v, w}``; a
        single ``mask & need == need`` tests adjacency to a whole vertex
        set at once — the matchers' hottest probe.
        """
        return self.kernel().adj_masks

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return v in self._adj[u]

    def vertices(self) -> range:
        """All node IDs."""
        return range(self.order)

    def edges(self) -> Iterator[Edge]:
        """All edges, each once, in (min-ID, max-ID) lexicographic order.

        Uses the frozen kernel when available, but a pure edge read on
        an unfrozen graph (serialization, generator mutation loops)
        does not force kernel construction.
        """
        kern = self._frozen
        if kern is not None:
            adj: Sequence[Sequence[int]] = kern.neighbors
        else:
            adj = [sorted(s) for s in self._adj]
        for u in range(self.order):
            for v in adj[u]:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # statistics used by rewritings / matchers / dataset tables
    # ------------------------------------------------------------------

    def label_frequencies(self) -> Counter:
        """Multiplicity of each vertex label (paper's ``f(L(.))``)."""
        return Counter(self._labels)

    def distinct_labels(self) -> frozenset[Label]:
        """The set of vertex labels present in this graph."""
        return frozenset(self._labels)

    def density(self) -> float:
        """Edge density ``2m / (n (n-1))`` as reported in Tables 1-2."""
        n = self.order
        if n < 2:
            return 0.0
        return 2.0 * self._m / (n * (n - 1))

    def average_degree(self) -> float:
        """Mean vertex degree."""
        if self.order == 0:
            return 0.0
        return 2.0 * self._m / self.order

    # ------------------------------------------------------------------
    # structure operations
    # ------------------------------------------------------------------

    def permuted(self, perm: Sequence[int], name: str = "") -> "LabeledGraph":
        """Return the isomorphic graph with node IDs permuted by ``perm``.

        ``perm[old_id] == new_id``.  This realises the paper's observation
        (Definition 2) that "a graph isomorphic to G can be trivially
        produced by permuting the node IDs in G"; every rewriting in
        :mod:`repro.rewriting` reduces to a call to this method.
        """
        n = self.order
        if sorted(perm) != list(range(n)):
            raise GraphError("perm must be a permutation of 0..n-1")
        labels: list[Label] = [None] * n
        for old, new in enumerate(perm):
            labels[new] = self._labels[old]
        g = LabeledGraph(n, labels, name=name or self.name)
        for u, v in self.edges():
            g.add_edge(perm[u], perm[v], self.edge_label(u, v))
        return g

    def induced_subgraph(
        self, nodes: Sequence[int], name: str = ""
    ) -> tuple["LabeledGraph", dict[int, int]]:
        """Subgraph induced by ``nodes``.

        Returns the new graph (IDs compacted to ``0..len(nodes)-1`` in the
        order given) and the old-ID -> new-ID mapping.  Used by Grapes to
        carve out the connected components recorded in its location index.
        """
        mapping = {old: new for new, old in enumerate(nodes)}
        if len(mapping) != len(nodes):
            raise GraphError("duplicate node in induced_subgraph")
        g = LabeledGraph(
            len(nodes),
            [self._labels[v] for v in nodes],
            name=name or self.name,
        )
        for old_u in nodes:
            for old_v in self._adj[old_u]:
                new_v = mapping.get(old_v)
                if new_v is None:
                    continue
                new_u = mapping[old_u]
                if new_u < new_v:
                    g.add_edge(new_u, new_v, self.edge_label(old_u, old_v))
        return g, mapping

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted ID lists, ordered by smallest ID."""
        seen = [False] * self.order
        components: list[list[int]] = []
        for start in range(self.order):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            components.append(sorted(comp))
        return components

    def is_connected(self) -> bool:
        """Whether the graph has exactly one connected component."""
        return self.order <= 1 or len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # comparisons / hashing helpers (tests rely on these)
    # ------------------------------------------------------------------

    def same_labeled_structure(self, other: "LabeledGraph") -> bool:
        """Exact equality of labels and edge sets under identical IDs."""
        return (
            self.order == other.order
            and self._labels == other._labels
            and self._adj == other._adj
            and self._edge_labels == other._edge_labels
        )

    def degree_label_signature(self) -> tuple[tuple[Label, int], ...]:
        """Sorted multiset of (label, degree) pairs.

        An isomorphism *invariant*: two isomorphic graphs always share it.
        The tests use it to sanity-check that rewritings produce genuinely
        isomorphic graphs.
        """
        return tuple(
            sorted(
                ((self._labels[v], self.degree(v)) for v in self.vertices()),
                key=repr,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{tag} n={self.order} m={self.size} "
            f"labels={len(self.distinct_labels())}>"
        )
