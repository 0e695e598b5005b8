"""Fig. 9 + Table 9 — speedup*QLA from alternative algorithms.

Paper: per query, the speedup of switching to the best algorithm in
the set over sticking with one algorithm (original query IDs), for
yeast with 2 and 3 algorithms, human, and wordnet.  Expected shape:
speedups exceeding the rewriting-only speedups of Fig. 8 — "the use of
multiple algorithms could be way more beneficial compared to the
rewritings" — and adding QuickSI to the yeast set helps further.
"""

from conftest import publish


def test_fig9_table9(tables, benchmark):
    benchmark(lambda: tables("fig9", "yeast"))
    (table,) = tables("fig9", "yeast")
    publish(table)
    by_key = {(row[0], row[1]): row[2] for row in table.rows}
    # somebody must be helped substantially by algorithm switching
    assert max(by_key.values()) > 1.5
    # the 3-algorithm set can only help more than the 2-algorithm set
    assert by_key[("yeast3alg", "GQL")] >= by_key[("yeast2alg", "GQL")]
    assert by_key[("yeast3alg", "SPA")] >= by_key[("yeast2alg", "SPA")]

    for name in ("human", "wordnet"):
        (t,) = tables("fig9", name)
        publish(t)

    # cross-observation: algorithm switching beats rewritings for the
    # weaker algorithm (paper §7 conclusion), checked on yeast/SPA
    (rew,) = tables("fig8", "yeast")
    rew_avg = {row[0]: row[1] for row in rew.rows}
    assert by_key[("yeast3alg", "SPA")] >= rew_avg["SPA"] * 0.5
