"""Observation 5, quantified — straggler-set overlap between algorithms.

The paper's Observation 5 ("stragglers are algorithm-specific") is the
load-bearing premise of multi-algorithm racing, but the paper
demonstrates it only through speedup numbers.  This bench measures it
directly: the Jaccard overlap of the per-algorithm hard sets, plus the
winner-attribution of the [GQL/SPA] race.  Expected shape: overlaps
well below 1 wherever racing helps (Fig 14/15), and both algorithms
winning non-trivial shares of races.
"""

from conftest import publish

from repro.harness import NFV_DATASETS, hard_set


def test_hard_set_overlap(matrix, tables, benchmark):
    benchmark(lambda: tables("obs5", "yeast"))
    for name in NFV_DATASETS:
        m = matrix(name)
        table = tables("obs5", name)[0]
        publish(table)
        gql_hard = hard_set(m, "GQL")
        spa_hard = hard_set(m, "SPA")
        if gql_hard or spa_hard:
            overlap = len(gql_hard & spa_hard) / len(
                gql_hard | spa_hard
            )
            # racing helps exactly when the hard sets don't coincide
            assert overlap < 1.0


def test_winner_attribution(tables, benchmark):
    benchmark(lambda: tables("obs5", "yeast"))
    # each dataset's [GQL/SPA] race, the table after the overlap
    races = [tables("obs5", name)[1] for name in NFV_DATASETS]
    for table in races:
        publish(table)
        wins = {row[0]: row[1] for row in table.rows}
        total = sum(wins.values())
        assert total > 0
    # across the three datasets both algorithms must win somewhere:
    # no single algorithm dominates every dataset (paper §4 conclusion)
    shares = {"GQL-Orig": 0, "SPA-Orig": 0}
    for t in races:
        for row in t.rows:
            shares[row[0]] += row[1]
    assert shares["GQL-Orig"] > 0
    assert shares["SPA-Orig"] > 0
