"""Tables 3 and 4 — per-size band breakdowns (yeast and human).

Paper: for the smallest (10-edge) and largest (32-edge) query sizes,
the per-band average execution times and percentages.  Expected shape:
small queries are overwhelmingly easy with 0% hard; the largest size
brings double-digit hard percentages for the weaker algorithms
(QuickSI worst on yeast).
"""

from conftest import publish


def _hard_pct_by_size(table):
    out = {}
    for row in table.rows:
        out[(row[0], row[1])] = row[6]
    return out


def test_table3_yeast(matrix, tables, benchmark):
    m = matrix("yeast")
    benchmark(lambda: tables("table3", "yeast"))
    (table,) = tables("table3", "yeast")
    publish(table)
    hard = _hard_pct_by_size(table)
    sizes = sorted({m.unit_size(u) for u in m.units})
    small, large = f"{sizes[0]}e", f"{sizes[-1]}e"
    # small queries: no algorithm should be drowning
    for alg in m.methods:
        assert hard[(small, alg)] <= 25.0
    # the largest size must be at least as hard as the smallest
    for alg in m.methods:
        assert hard[(large, alg)] >= hard[(small, alg)]


def test_table4_human(matrix, tables, benchmark):
    m = matrix("human")
    benchmark(lambda: tables("table3", "human"))
    (table,) = tables("table3", "human")
    publish(table)
    hard = _hard_pct_by_size(table)
    sizes = sorted({m.unit_size(u) for u in m.units})
    small = f"{sizes[0]}e"
    for alg in m.methods:
        assert hard[(small, alg)] <= 50.0
