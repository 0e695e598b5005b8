"""Table 10 — percentage of killed queries, baselines vs Ψ.

Paper: Grapes/4 on PPI and GraphQL/sPath on yeast/human/wordnet vs the
Ψ-framework (Grapes/1 × 4 rewritings for FTV; [GQL/SPA]-[Or/DND] for
NFV).  Expected shape: Ψ strictly reduces the killed percentage, often
to zero — "hard queries became extinct".
"""

from conftest import publish


def test_table10(tables, benchmark):
    benchmark(lambda: tables("table10"))
    (table,) = tables("table10")
    publish(table)
    for row in table.rows:
        label, _baseline, base_killed, psi_killed = row
        assert psi_killed <= base_killed, label
