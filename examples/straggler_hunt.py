"""Straggler hunt: find the queries that dominate a workload and rescue
them with rewritings and alternative algorithms.

Reproduces the paper's narrative end to end on a small scale:
observation 1 (stragglers exist), observation 2/4 (isomorphic instances
vary wildly; stragglers have easy counterparts), observation 5
(stragglers are algorithm-specific), and the Ψ-framework punchline.

Run:  python examples/straggler_hunt.py
"""

from repro.datasets import yeast_like
from repro.matching import Budget, make_matcher
from repro.psi import PsiNFV, Variant
from repro.rewriting import ALL_PAPER_REWRITINGS, LabelStats, make_rewriting
from repro.service.planner import race_starts
from repro.workload import generate_workload

BUDGET_STEPS = 150_000
ALGORITHMS = ("GQL", "SPA", "QSI")


def main() -> None:
    graph = yeast_like()
    stats = LabelStats.of_graph(graph)
    budget = Budget(max_steps=BUDGET_STEPS)
    queries = generate_workload([graph], 10, 20, seed=33)

    matchers = {name: make_matcher(name) for name in ALGORITHMS}
    indexes = {
        name: matchers[name].prepare(graph) for name in ALGORITHMS
    }

    # ------------------------------------------------------------------
    # observation 1: a few queries dominate the workload
    # ------------------------------------------------------------------
    print(f"workload: {len(queries)} 20-edge queries on a yeast-like "
          f"graph; cap {BUDGET_STEPS} steps\n")
    costs = {}
    for q in queries:
        for alg in ALGORITHMS:
            out = matchers[alg].run(
                indexes[alg], q.graph, budget=budget, count_only=True
            )
            costs[(q.name, alg)] = out
    for alg in ALGORITHMS:
        per_query = sorted(
            (costs[(q.name, alg)].steps, q.name) for q in queries
        )
        total = sum(s for s, _ in per_query)
        worst_steps, worst = per_query[-1]
        print(
            f"  {alg}: total {total:>9} steps; worst query {worst} "
            f"takes {100 * worst_steps / total:.0f}% of the workload"
        )

    # ------------------------------------------------------------------
    # observations 2+4: the straggler has easy isomorphic instances
    # ------------------------------------------------------------------
    alg = "QSI"
    straggler = max(
        queries, key=lambda q: costs[(q.name, alg)].steps
    )
    print(
        f"\nstraggler for {alg}: {straggler.name} "
        f"({costs[(straggler.name, alg)].steps} steps"
        f"{', killed' if costs[(straggler.name, alg)].killed else ''})"
    )
    print(f"  rewriting costs under {alg}:")
    for name in ("Orig",) + ALL_PAPER_REWRITINGS:
        rq = make_rewriting(name).apply(straggler.graph, stats)
        out = matchers[alg].run(
            indexes[alg], rq.graph, budget=budget, count_only=True
        )
        tag = "killed" if out.killed else f"{out.steps} steps"
        print(f"    {name:8} {tag}")

    # ------------------------------------------------------------------
    # observation 5: another algorithm may find it easy
    # ------------------------------------------------------------------
    print("  same (original) query under the other algorithms:")
    for other in ALGORITHMS:
        out = costs[(straggler.name, other)]
        tag = "killed" if out.killed else f"{out.steps} steps"
        print(f"    {other:8} {tag}")

    # ------------------------------------------------------------------
    # the Ψ-framework rescues it
    # ------------------------------------------------------------------
    psi = PsiNFV(graph)
    variants = [
        Variant("GQL", "Orig"), Variant("SPA", "Orig"),
        Variant("GQL", "DND"), Variant("SPA", "DND"),
    ]
    result = psi.race(
        straggler.graph, variants, budget=budget, count_only=True,
        starts=race_starts(variants, BUDGET_STEPS),
    )
    print(
        f"\nPsi([GQL/SPA]-[Or/DND]) on the straggler: "
        f"winner={result.winner}, {result.steps} steps "
        f"(vs {costs[(straggler.name, alg)].steps} for vanilla {alg})"
    )


if __name__ == "__main__":
    main()
