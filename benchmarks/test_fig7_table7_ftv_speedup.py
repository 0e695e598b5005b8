"""Fig. 7 + Table 7 — speedup*QLA across rewritings, FTV.

Paper: the attainable speedup of picking the best rewriting per query
over always using the original, for Grapes/1, Grapes/4, GGSX on
synthetic and PPI.  Expected shape: averages far above 1 with huge
stdDev, medians close to 1 (most queries are easy; the gains live in
the tail) — "large performance gains can come from improving the hard
queries".
"""

from conftest import publish

from repro.harness import FTV_DATASETS


def test_fig7_table7(tables, benchmark):
    benchmark(lambda: tables("fig7", "ppi"))
    for name in FTV_DATASETS:
        (table,) = tables("fig7", name)
        publish(table)
        for row in table.rows:
            method, avg, _sd, mn, mx, median = row[:6]
            assert mn >= 1.0  # the original is always in the min set
            assert mx >= avg >= 1.0
            # median close to min: gains concentrate in the tail
            assert median <= avg
        assert max(row[1] for row in table.rows) > 1.5
