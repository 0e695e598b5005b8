"""Fig. 12 — Grapes/4 vs Ψ(Grapes/1 × 4 rewritings), by query size.

Paper: both contenders use 4-way parallelism on the PPI dataset;
Ψ spends its threads on rewriting races instead of component splitting
and wins, increasingly so at larger query sizes.
"""

from conftest import publish


def test_fig12(tables, benchmark):
    benchmark(lambda: tables("fig12", "ppi"))
    (table,) = tables("fig12", "ppi")
    publish(table)
    grapes4 = table.column("Grapes/4")
    psi = table.column("Psi(Grapes/1 x4 rewritings)")
    # same parallelism level: Psi must win overall (paper's punchline)
    assert sum(psi) <= sum(grapes4) * 1.1
    # and must win outright on at least one size
    assert any(p < g for p, g in zip(psi, grapes4))
