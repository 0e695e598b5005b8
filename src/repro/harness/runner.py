"""Cost-matrix measurement: run every (query, method, variant) attempt.

The paper's evaluation derives *all* of its figures and tables from the
same underlying measurements: per query (or per (query, stored-graph)
pair for FTV), the execution time of each isomorphic instance under
each algorithm, capped at the kill limit.  This module measures exactly
that matrix once per dataset; the experiment drivers in
:mod:`repro.harness.experiments` then aggregate it into every figure
and table, and Ψ race times are replayed from it via
:func:`repro.psi.race_from_costs` — precisely how the paper's speedup*
metric is defined (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..datasets import (
    graphgen_like,
    human_like,
    ppi_like,
    wordnet_like,
    yeast_like,
)
from ..graphs import LabeledGraph
from ..indexing import GGSXIndex, GrapesIndex
from ..matching import Budget
from ..metrics import CostRecord, Thresholds
from ..psi import PsiNFV, Variant
from ..rewriting import LabelStats, make_rewriting
from ..scheduling import first_match_schedule
from ..workload import Query, generate_workload
from .config import (
    FTVExperimentConfig,
    NFVExperimentConfig,
    PAPER_REWRITINGS,
    RANDOM_INSTANCES,
)

__all__ = [
    "ALL_VARIANT_NAMES",
    "NFV_DATASETS",
    "FTV_DATASETS",
    "NFVCostMatrix",
    "FTVCostMatrix",
    "build_nfv_graph",
    "build_ftv_graphs",
    "measure_nfv_matrix",
    "measure_ftv_matrix",
]

#: Every per-query instance measured: the original, the five proposed
#: rewritings, and six random isomorphic instances (§5).
ALL_VARIANT_NAMES: tuple[str, ...] = (
    ("Orig",) + PAPER_REWRITINGS + RANDOM_INSTANCES
)

#: The canonical dataset rosters (CLI and serving catalog import
#: these; the builder dicts below are keyed by exactly these names).
NFV_DATASETS: tuple[str, ...] = ("yeast", "human", "wordnet")
FTV_DATASETS: tuple[str, ...] = ("ppi", "synthetic")


def build_nfv_graph(dataset: str, scale: str = "default") -> LabeledGraph:
    """The stored graph for an NFV dataset name."""
    if scale == "default":
        builders = {
            "yeast": lambda: yeast_like(),
            "human": lambda: human_like(),
            "wordnet": lambda: wordnet_like(),
        }
    elif scale == "tiny":
        builders = {
            "yeast": lambda: yeast_like(n=200, num_labels=24),
            "human": lambda: human_like(n=150, num_labels=12),
            "wordnet": lambda: wordnet_like(n=400),
        }
    else:
        raise ValueError(f"unknown scale {scale!r}")
    try:
        return builders[dataset]()
    except KeyError:
        raise ValueError(f"unknown NFV dataset {dataset!r}") from None


def build_ftv_graphs(
    dataset: str, scale: str = "default"
) -> list[LabeledGraph]:
    """The stored graph collection for an FTV dataset name."""
    if scale == "default":
        builders = {
            "ppi": lambda: ppi_like(),
            "synthetic": lambda: graphgen_like(),
        }
    elif scale == "tiny":
        builders = {
            "ppi": lambda: ppi_like(
                num_graphs=3, avg_nodes=60, num_labels=8
            ),
            "synthetic": lambda: graphgen_like(
                num_graphs=5, avg_nodes=40, density=0.12, num_labels=5
            ),
        }
    else:
        raise ValueError(f"unknown scale {scale!r}")
    try:
        return builders[dataset]()
    except KeyError:
        raise ValueError(f"unknown FTV dataset {dataset!r}") from None


def _workload(
    graphs: list[LabeledGraph], config_workload
) -> list[Query]:
    queries: list[Query] = []
    for size in config_workload.sizes:
        queries.extend(
            generate_workload(
                graphs,
                config_workload.queries_per_size,
                size,
                seed=config_workload.seed + size,
            )
        )
    return queries


@dataclass
class NFVCostMatrix:
    """Charged costs of every (query, algorithm, instance) attempt."""

    dataset: str
    thresholds: Thresholds
    queries: list[Query]
    methods: tuple[str, ...]
    variant_names: tuple[str, ...]
    records: dict[tuple[int, str, str], CostRecord] = field(
        default_factory=dict
    )

    @property
    def units(self) -> range:
        """Measurement units (query indices)."""
        return range(len(self.queries))

    def unit_size(self, unit: int) -> int:
        """Query size (edges) of one unit."""
        return self.queries[unit].num_edges

    def record(self, unit: int, method: str, variant: str) -> CostRecord:
        """The attempt's cost record."""
        return self.records[(unit, method, variant)]

    def charged(self, unit: int, method: str, variant: str) -> int:
        """Charged steps (cap when killed), clamped to >= 1."""
        return max(1, self.record(unit, method, variant).charged(
            self.thresholds
        ))


def measure_nfv_matrix(
    config: NFVExperimentConfig,
    graph: Optional[LabeledGraph] = None,
    scale: str = "default",
    variant_names: tuple[str, ...] = ALL_VARIANT_NAMES,
    progress: bool = False,
) -> NFVCostMatrix:
    """Measure the full NFV cost matrix for one dataset.

    Every attempt runs the full matching problem (up to
    ``config.max_embeddings`` embeddings, count-only) under the
    experiment budget; killed attempts record the cap.
    """
    if graph is None:
        graph = build_nfv_graph(config.dataset, scale)
    queries = _workload([graph], config.workload)
    psi = PsiNFV(graph)
    budget = Budget(max_steps=config.thresholds.budget_steps)
    matrix = NFVCostMatrix(
        dataset=config.dataset,
        thresholds=config.thresholds,
        queries=queries,
        methods=config.algorithms,
        variant_names=variant_names,
    )
    for qi, query in enumerate(queries):
        for alg in config.algorithms:
            for name in variant_names:
                matrix.records[(qi, alg, name)] = psi.run_variant(
                    query.graph,
                    Variant(alg, name),
                    budget=budget,
                    max_embeddings=config.max_embeddings,
                    count_only=True,
                )
        if progress:  # pragma: no cover - console convenience
            print(f"  [{config.dataset}] query {qi + 1}/{len(queries)}")
    return matrix


@dataclass
class FTVCostMatrix:
    """Charged costs of every ((query, graph), method, instance) attempt.

    Measurement units are (query, candidate graph) pairs, following the
    paper's protocol of timing each sub-iso test against a single
    stored graph (§4).  The pair universe is the Grapes candidate set,
    which is a subset of GGSX's (Grapes' exact path counts prune at
    least as hard as GGSX's suffix-accumulated counts), so every pair is
    verified by all methods.
    """

    dataset: str
    thresholds: Thresholds
    queries: list[Query]
    pairs: list[tuple[int, int]]  # (query index, graph id)
    methods: tuple[str, ...]
    variant_names: tuple[str, ...]
    records: dict[tuple[int, str, str], CostRecord] = field(
        default_factory=dict
    )

    @property
    def units(self) -> range:
        """Measurement units (pair indices)."""
        return range(len(self.pairs))

    def unit_size(self, unit: int) -> int:
        """Query size (edges) of one unit's query."""
        return self.queries[self.pairs[unit][0]].num_edges

    def record(self, unit: int, method: str, variant: str) -> CostRecord:
        """The attempt's cost record."""
        return self.records[(unit, method, variant)]

    def charged(self, unit: int, method: str, variant: str) -> int:
        """Charged steps (cap when killed), clamped to >= 1."""
        return max(1, self.record(unit, method, variant).charged(
            self.thresholds
        ))


def _truncated(result: CostRecord, allowance: int) -> CostRecord:
    """View of a cached component cost under a smaller allowance.

    A decision run reports its match on its final step, so a run
    truncated before its full cost has found nothing yet.
    """
    if result.steps <= allowance:
        return result
    return CostRecord(steps=allowance, found=False, killed=True)


def _caching_task(task):
    """Wrap a work chunk so repeated schedules reuse its measured cost.

    The chunk is evaluated at the largest allowance requested so far;
    smaller allowances are served by truncation (sound because a
    decision run's match lands on its final step).
    """
    memo: dict[str, CostRecord] = {}

    def run(allowance: int) -> CostRecord:
        cached = memo.get("result")
        if cached is None or (cached.killed and cached.steps < allowance):
            cached = task(allowance)
            memo["result"] = cached
        return _truncated(cached, allowance)

    return run


def measure_ftv_matrix(
    config: FTVExperimentConfig,
    graphs: Optional[list[LabeledGraph]] = None,
    scale: str = "default",
    variant_names: tuple[str, ...] = ALL_VARIANT_NAMES,
    progress: bool = False,
) -> FTVCostMatrix:
    """Measure the full FTV cost matrix for one dataset.

    For each (query, candidate graph) pair and each isomorphic
    instance, records the verification time of every configured method:
    Grapes/1 and Grapes/4 share per-component VF2 costs (the thread
    count only changes the simulated schedule); GGSX verifies against
    the whole graph.
    """
    if graphs is None:
        graphs = build_ftv_graphs(config.dataset, scale)
    queries = _workload(graphs, config.workload)
    budget_steps = config.thresholds.budget_steps
    grapes = GrapesIndex(
        graphs, max_path_length=config.max_path_length, threads=1
    )
    want_ggsx = "GGSX" in config.methods
    ggsx = (
        GGSXIndex(graphs, max_path_length=config.max_path_length)
        if want_ggsx
        else None
    )
    matrix = FTVCostMatrix(
        dataset=config.dataset,
        thresholds=config.thresholds,
        queries=queries,
        pairs=[],
        methods=config.methods,
        variant_names=variant_names,
    )
    grapes_threads = sorted(
        int(m.split("/")[1]) for m in config.methods if m.startswith("Grapes")
    )
    for qi, query in enumerate(queries):
        candidates = grapes.filter(query.graph)
        for gid in candidates:
            unit = len(matrix.pairs)
            matrix.pairs.append((qi, gid))
            stats = LabelStats.of_graph(graphs[gid])
            for name in variant_names:
                rq = make_rewriting(name).apply(query.graph, stats)
                # work chunks (component x root slice) are shared across
                # Grapes thread counts via an allowance-aware cache: a
                # chunk is (re-)evaluated only when a schedule needs it
                # under a larger step allowance than any previous run
                plan = grapes.verify_plan(rq.graph)
                raw_tasks = grapes.verification_tasks(rq.graph, gid, plan)
                tasks = [_caching_task(t) for t in raw_tasks]
                for threads in grapes_threads:
                    sched = first_match_schedule(
                        tasks, workers=threads, budget_steps=budget_steps
                    )
                    matrix.records[
                        (unit, f"Grapes/{threads}", name)
                    ] = CostRecord(
                        steps=sched.time,
                        found=sched.found,
                        killed=sched.killed,
                    )
                if ggsx is not None:
                    report = ggsx.verify(
                        rq.graph, gid, Budget(max_steps=budget_steps), plan
                    )
                    matrix.records[(unit, "GGSX", name)] = CostRecord(
                        steps=report.steps,
                        found=report.matched,
                        killed=report.killed,
                    )
        if progress:  # pragma: no cover - console convenience
            print(
                f"  [{config.dataset}] query {qi + 1}/{len(queries)} "
                f"({len(matrix.pairs)} pairs so far)"
            )
    return matrix
