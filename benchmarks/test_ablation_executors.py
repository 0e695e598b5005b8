"""Ablation — the interleaved race and the cost replay agree.

The interleaved executor is the reproduction's deterministic stand-in
for real parallel racing (DESIGN.md §2).  This ablation verifies, on
live races over a yeast-like store, that the interleaved winner's
step count equals the minimum of the standalone per-variant costs —
i.e. simulated races replayed from cost matrices are exact.
"""

from conftest import publish

from repro.harness import Table, build_nfv_graph
from repro.matching import Budget
from repro.psi import PsiNFV, Variant
from repro.workload import generate_workload

VARIANTS = [
    Variant("GQL", "Orig"),
    Variant("SPA", "Orig"),
    Variant("GQL", "DND"),
    Variant("SPA", "ILF"),
]


def test_executor_agreement(benchmark):
    graph = build_nfv_graph("yeast", scale="tiny")
    psi = PsiNFV(graph)
    queries = generate_workload([graph], 6, 6, seed=5)
    budget = Budget(max_steps=50_000)

    table = Table(
        "Ablation: executor agreement (yeast-like, 6 queries)",
        ["query", "min standalone", "interleaved race", "winner"],
    )
    for q in queries:
        standalone = {
            v: psi.run_variant(
                q.graph, v, budget=budget, max_embeddings=1
            )
            for v in VARIANTS
        }
        best = min(
            c.steps for c in standalone.values() if not c.killed
        )
        race = psi.race(
            q.graph, VARIANTS, budget=budget, max_embeddings=1
        )
        table.add_row(
            q.name, best, race.steps, str(race.winner)
        )
        assert race.steps == best  # zero-overhead default
    publish(table)

    benchmark(
        lambda: psi.race(
            queries[0].graph, VARIANTS, budget=budget, max_embeddings=1
        )
    )
