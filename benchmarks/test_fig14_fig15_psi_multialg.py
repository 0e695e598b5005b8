"""Figs. 14 and 15 — Ψ with multiple algorithms on the NFV methods.

Paper: racing GraphQL and sPath together (optionally with a rewriting
per thread) against vanilla GraphQL (panel a) and vanilla sPath
(panel b); speedup*QLA in Fig. 14 and speedup*WLA in Fig. 15.
Expected shape: up to orders of magnitude gains for the algorithm that
finds a given dataset hard; the [Or/DND] 4-thread set hedges best.
"""

from conftest import publish

from repro.harness import NFV_DATASETS


def test_fig14_qla(tables, benchmark):
    benchmark(lambda: tables("fig14", "yeast"))
    for name in NFV_DATASETS:
        best_over_baselines = 0.0
        for baseline, table in zip(("GQL", "SPA"), tables("fig14", name)):
            publish(table)
            values = table.column(f"vs {baseline}")
            # racing never loses more than the overhead on easy queries
            assert min(values) > 0.5
            best_over_baselines = max(best_over_baselines, max(values))
        # per dataset, the weaker algorithm's baseline must gain: when a
        # query is expensive for one algorithm the other usually isn't
        # (paper observation 5) — unless, as on wordnet, the two hard
        # sets coincide, in which case the race is merely overhead-flat
        assert best_over_baselines >= 0.95


def test_fig15_wla(tables, benchmark):
    benchmark(lambda: tables("fig15", "yeast"))
    weak_helped = False
    for name in NFV_DATASETS:
        for baseline, table in zip(("GQL", "SPA"), tables("fig15", name)):
            publish(table)
            if max(table.column(f"vs {baseline}")) > 2.0:
                weak_helped = True
    # somewhere, racing both algorithms must yield a substantial WLA win
    assert weak_helped
