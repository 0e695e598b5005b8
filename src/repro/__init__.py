"""repro — reproduction of "Subgraph Querying with Parallel Use of Query
Rewritings and Alternative Algorithms" (Katsarou, Ntarmos, Triantafillou;
EDBT 2017).

The package implements, from scratch:

* a labeled-graph substrate with IO and dataset generators
  (:mod:`repro.graphs`, :mod:`repro.datasets`);
* the paper's NFV matchers — VF2, QuickSI, GraphQL, sPath (plus
  TurboISO and a brute-force oracle) — as deterministic,
  steppable, budget-capped search engines (:mod:`repro.matching`);
* the paper's FTV methods — Grapes and GGSX (:mod:`repro.indexing`);
* the five query rewritings ILF / IND / DND / ILF+IND / ILF+DND
  (:mod:`repro.rewriting`);
* the Ψ-framework, which races rewritings and/or alternative algorithms
  in parallel and keeps the first finisher (:mod:`repro.psi`);
* workload generation, the paper's metrics (QLA/WLA, (max/min),
  speedup*), and an experiment harness regenerating every figure and
  table of the paper's evaluation (:mod:`repro.workload`,
  :mod:`repro.metrics`, :mod:`repro.harness`).

Quickstart::

    from repro.datasets import yeast_like
    from repro.matching import Budget
    from repro.psi import PsiNFV, Variant
    from repro.workload import generate_workload

    graph = yeast_like()
    query = generate_workload([graph], 1, 8, seed=1)[0].graph
    psi = PsiNFV(graph)
    result = psi.race(
        query,
        [Variant("GQL", "Orig"), Variant("SPA", "Orig"),
         Variant("GQL", "ILF"), Variant("SPA", "DND")],
        budget=Budget(max_steps=200_000),
    )
    print(result.winner, result.steps, len(result.embeddings))
"""

from . import (
    caching,
    datasets,
    graphs,
    harness,
    indexing,
    matching,
    metrics,
    psi,
    rewriting,
    scheduling,
    workload,
)

__version__ = "1.0.0"

__all__ = [
    "caching",
    "datasets",
    "graphs",
    "harness",
    "indexing",
    "matching",
    "metrics",
    "psi",
    "rewriting",
    "scheduling",
    "workload",
    "__version__",
]
