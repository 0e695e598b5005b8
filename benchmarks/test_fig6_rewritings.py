"""Fig. 6 — per-rewriting average times and hard percentages.

Paper: WLA average processing time of the original query and each of
the five proposed rewritings, plus the percentage of hard queries per
rewriting, on PPI (FTV) and yeast (NFV).  Expected shape: for FTV, the
ILF family performs best; for NFV no single rewriting dominates, and
some rewritings are *worse* than the original for GraphQL.
"""

from conftest import publish


def test_fig6ab_ppi(matrix, tables, benchmark):
    m = matrix("ppi")
    benchmark(lambda: tables("fig6ftv", "ppi"))
    aet, hard = tables("fig6ftv", "ppi")
    publish(aet)
    publish(hard)
    # each method's per-rewriting averages must differ: the rewriting
    # matters (the core of the paper's §6)
    for method in m.methods:
        col = aet.column(method)
        assert len({round(v, 6) for v in col}) > 1


def test_fig6cd_yeast(tables, benchmark):
    benchmark(lambda: tables("fig6nfv", "yeast"))
    aet, hard = tables("fig6nfv", "yeast")
    publish(aet)
    publish(hard)
    names = aet.column("rewriting")
    assert names[0] == "Orig"
    assert "ILF+DND" in names
