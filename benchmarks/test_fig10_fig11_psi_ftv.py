"""Figs. 10 and 11 — Ψ-framework speedups on the FTV methods.

Paper: speedup*QLA (Fig. 10) and speedup*WLA (Fig. 11) of racing 2-6
rewriting variants inside the verification stage, per FTV method, on
synthetic and PPI.  Expected shape: every variant set beats the
original; more threads help, with diminishing returns (the paper notes
the 3-thread set is within 3-8% of the 4-thread set for Grapes).
"""

from conftest import publish

from repro.harness import FTV_DATASETS


def test_fig10_qla(matrix, tables, benchmark):
    benchmark(lambda: tables("fig10", "ppi"))
    for name in FTV_DATASETS:
        m = matrix(name)
        (table,) = tables("fig10", name)
        publish(table)
        for method in m.methods:
            col = table.column(method)
            # racing rewritings must not lose badly to the original
            assert max(col) >= 1.0


def test_fig11_wla(tables, benchmark):
    benchmark(lambda: tables("fig11", "ppi"))
    for name in FTV_DATASETS:
        (table,) = tables("fig11", name)
        publish(table)
        # the Or/all set hedges with the original: WLA speedup >= ~1
        last_row = table.rows[-1]
        assert last_row[0] == "Psi(Or/all_rewritings)"
        for value in last_row[1:]:
            assert value > 0.5
