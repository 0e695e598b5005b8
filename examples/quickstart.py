"""Quickstart: subgraph matching and the Ψ-framework in five minutes.

Builds a yeast-like stored graph, grows a query from it, answers the
matching problem with each NFV algorithm, and then races rewritings and
algorithms with the Ψ-framework, staged as the service races them.

Run:  python examples/quickstart.py
"""

from repro.datasets import summarize_graph, yeast_like
from repro.matching import Budget, make_matcher
from repro.psi import PsiNFV, variants_from_spec
from repro.service.planner import race_starts
from repro.workload import generate_workload


def main() -> None:
    # ------------------------------------------------------------------
    # 1. a stored graph (stand-in for the paper's yeast dataset)
    # ------------------------------------------------------------------
    graph = yeast_like(n=400, num_labels=30)
    summary = summarize_graph(graph)
    print("stored graph:")
    for name, value in summary.as_rows():
        print(f"  {name:16} {value}")

    # ------------------------------------------------------------------
    # 2. a workload query (random edge growth, as in the paper §3.4)
    # ------------------------------------------------------------------
    [query] = generate_workload([graph], 1, 10, seed=4)
    print(f"\nquery: {query.graph.order} vertices, "
          f"{query.graph.size} edges")

    # ------------------------------------------------------------------
    # 3. one matcher at a time
    # ------------------------------------------------------------------
    budget = Budget(max_steps=500_000)
    print("\nstandalone runs (up to 1000 embeddings):")
    for name in ("GQL", "SPA", "QSI", "VF2"):
        out = make_matcher(name).run(
            graph, query.graph, budget=budget, count_only=True
        )
        status = "killed" if out.killed else "ok"
        print(
            f"  {name:4} {out.num_embeddings:5d} embeddings in "
            f"{out.steps:8d} steps  [{status}]"
        )

    # ------------------------------------------------------------------
    # 4. the Ψ-framework: race rewritings and algorithms, staged as the
    #    service races them (the first variant gets a head start)
    # ------------------------------------------------------------------
    psi = PsiNFV(graph)
    variants = variants_from_spec(("GQL", "SPA"), ("Orig", "ILF", "DND"))
    result = psi.race(
        query.graph, variants, budget=budget, max_embeddings=1000,
        starts=race_starts(variants, budget.max_steps),
    )
    full = psi.race(
        query.graph, variants, budget=budget, max_embeddings=1000
    )
    print(
        f"\nPsi race over {len(variants)} variants:\n"
        f"  winner  : {result.winner}\n"
        f"  steps   : {result.steps}\n"
        f"  found   : {result.found} "
        f"({len(result.embeddings)} embeddings returned)"
    )
    print(
        "  total work across variants: "
        f"{result.race.work_steps} steps staged, "
        f"{full.race.work_steps} at full width "
        "(losers are killed at the winner's finish)"
    )

if __name__ == "__main__":
    main()
