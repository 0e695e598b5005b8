"""Fig. 13 — Ψ-framework with rewriting variants on the NFV methods.

Paper: speedup*QLA of racing the original plus 2-5 rewritings per
algorithm, on yeast, human, wordnet.  Expected shape: every set's
speedup >= 1 (the original is always in the race, so Ψ can only lose
the overhead), GraphQL benefits least, and the largest improvements
appear on the denser/better-labeled datasets.
"""

from conftest import publish

from repro.harness import NFV_DATASETS


def test_fig13(matrix, tables, benchmark):
    benchmark(lambda: tables("fig13", "yeast"))
    for name in NFV_DATASETS:
        m = matrix(name)
        (table,) = tables("fig13", name)
        publish(table)
        for method in m.methods:
            col = table.column(method)
            # with Orig in every set, Psi loses only race overhead
            assert min(col) > 0.9
