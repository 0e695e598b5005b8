"""Fig. 8 + Table 8 — speedup*QLA across rewritings, NFV.

Paper: same metric as Fig. 7 for GraphQL/sPath/QuickSI on yeast, human,
wordnet.  Expected shape: sPath and QuickSI benefit most; GraphQL's
plan-based ordering is least ID-sensitive; wordnet benefits least (its
near-path queries with 1-2 labels give rewritings nothing to work
with — paper §6.2).
"""

from conftest import publish

from repro.harness import NFV_DATASETS


def test_fig8_table8(tables, benchmark):
    benchmark(lambda: tables("fig8", "yeast"))
    avgs = {}
    for name in NFV_DATASETS:
        (table,) = tables("fig8", name)
        publish(table)
        for row in table.rows:
            if isinstance(row[1], float):
                avgs[(name, row[0])] = row[1]
            assert row[3] >= 1.0
    # wordnet gains less from rewritings than yeast does, for the
    # algorithm present on both (paper §6.2's sparsity/label argument)
    if ("wordnet", "SPA") in avgs and ("yeast", "SPA") in avgs:
        assert avgs[("wordnet", "SPA")] <= avgs[("yeast", "SPA")] * 2.0
