"""Fig. 2 — stragglers in NFV methods.

Paper: WLA-average execution times per band for GraphQL, sPath (and
QuickSI on yeast) over yeast, human, wordnet, plus the band
percentages.  Expected shape: completed averages dominated by the most
expensive queries; different algorithms show different hard-query
shares on different datasets.
"""

from conftest import publish

from repro.harness import NFV_DATASETS


def test_fig2abc_wla(tables, benchmark):
    benchmark(lambda: tables("fig2", "yeast"))
    for name in NFV_DATASETS:
        table, _bands = tables("fig2", name)
        publish(table)
        easy = table.column("easy")
        completed = table.column("completed")
        for e, c in zip(easy, completed):
            if c == c and e == e:  # skip NaN bands
                assert c >= e


def test_fig2d_band_percentages(tables, benchmark):
    benchmark(lambda: tables("fig2", "yeast"))
    hard_share = {}
    for name in NFV_DATASETS:
        _wla, table = tables("fig2", name)
        publish(table)
        for row in table.rows:
            hard_share[(name, row[0])] = row[3]
    # paper's observation 5 precondition: hard shares differ between
    # algorithms on the same dataset (stragglers are algorithm-specific)
    differs = any(
        hard_share[(ds, "GQL")] != hard_share[(ds, "SPA")]
        for ds in ("yeast", "human", "wordnet")
    )
    assert differs
