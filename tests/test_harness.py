"""Integration tests for the experiment harness on tiny configurations.

These exercise the full measurement + aggregation pipeline that the
benchmarks run at full scale: every experiment driver must produce a
well-formed table from real measured matrices.
"""

import math
from types import SimpleNamespace

import pytest

from repro.harness import (
    ALL_VARIANT_NAMES,
    FTVExperimentConfig,
    NFVCostMatrix,
    NFVExperimentConfig,
    PAPER_REWRITINGS,
    PSI_FTV_VARIANT_SETS,
    PSI_NFV_MULTIALG_SETS,
    PSI_NFV_REWRITING_SETS,
    RANDOM_INSTANCES,
    Table,
    alt_algorithm_speedup_table,
    band_percentages_table,
    build_ftv_graphs,
    build_nfv_graph,
    grapes_psi_by_size_table,
    killed_pct_table,
    maxmin_table,
    measure_ftv_matrix,
    measure_nfv_matrix,
    psi_multialg_speedup_table,
    psi_race_time,
    psi_speedup_table,
    rewriting_aet_table,
    rewriting_hard_pct_table,
    rewriting_speedup_table,
    size_breakdown_table,
    stragglers_wla_table,
)
from repro.metrics import CostRecord, Thresholds
from repro.psi import OverheadModel


@pytest.fixture(scope="module")
def nfv_matrix():
    cfg = NFVExperimentConfig.tiny("yeast")
    return measure_nfv_matrix(cfg, scale="tiny")


@pytest.fixture(scope="module")
def ftv_matrix():
    cfg = FTVExperimentConfig.tiny("ppi")
    return measure_ftv_matrix(cfg, scale="tiny")


class TestBuilders:
    def test_nfv_names(self):
        assert build_nfv_graph("yeast", "tiny").order > 0
        with pytest.raises(ValueError):
            build_nfv_graph("mars")
        with pytest.raises(ValueError):
            build_nfv_graph("yeast", "giant")

    def test_ftv_names(self):
        assert len(build_ftv_graphs("ppi", "tiny")) > 0
        with pytest.raises(ValueError):
            build_ftv_graphs("mars")


class TestNFVMatrix:
    def test_complete(self, nfv_matrix):
        m = nfv_matrix
        expected = (
            len(m.queries) * len(m.methods) * len(ALL_VARIANT_NAMES)
        )
        assert len(m.records) == expected

    def test_charged_clamped(self, nfv_matrix):
        m = nfv_matrix
        for u in m.units:
            for alg in m.methods:
                assert m.charged(u, alg, "Orig") >= 1

    def test_unit_sizes(self, nfv_matrix):
        m = nfv_matrix
        assert {m.unit_size(u) for u in m.units} == {4}

    def test_satisfiable_unless_killed(self, nfv_matrix):
        m = nfv_matrix
        for u in m.units:
            rec = m.record(u, "GQL", "Orig")
            assert rec.found or rec.killed


class TestFTVMatrix:
    def test_pairs_and_records(self, ftv_matrix):
        m = ftv_matrix
        assert len(m.pairs) >= len(m.queries)  # source graph at least
        expected = len(m.pairs) * len(m.methods) * len(ALL_VARIANT_NAMES)
        assert len(m.records) == expected

    def test_grapes4_never_slower(self, ftv_matrix):
        m = ftv_matrix
        for u in m.units:
            assert m.charged(u, "Grapes/4", "Orig") <= m.charged(
                u, "Grapes/1", "Orig"
            )

    def test_source_pair_matches(self, ftv_matrix):
        m = ftv_matrix
        for u in m.units:
            qi, gid = m.pairs[u]
            if gid == m.queries[qi].source_graph_id:
                rec = m.record(u, "Grapes/1", "Orig")
                assert rec.found or rec.killed


ALG_SETS = [("pair", ("GQL", "SPA")), ("triple", ("GQL", "SPA", "QSI"))]


class TestDrivers:
    def test_all_nfv_drivers_render(self, nfv_matrix):
        m = nfv_matrix
        tables = [
            stragglers_wla_table(m, "t"),
            band_percentages_table(m, "t"),
            size_breakdown_table(m, "t"),
            maxmin_table(m, "t"),
            rewriting_aet_table(m, "t"),
            rewriting_hard_pct_table(m, "t"),
            rewriting_speedup_table(m, "t"),
            alt_algorithm_speedup_table(m, "t", ALG_SETS),
            psi_speedup_table(m, "t", PSI_NFV_REWRITING_SETS),
            psi_speedup_table(m, "t", PSI_NFV_REWRITING_SETS, mode="wla"),
            psi_multialg_speedup_table(
                m, "t", PSI_NFV_MULTIALG_SETS, baseline="GQL"
            ),
            psi_multialg_speedup_table(
                m, "t", PSI_NFV_MULTIALG_SETS, baseline="SPA", mode="wla"
            ),
        ]
        for t in tables:
            text = t.render()
            assert "t" in text
            assert t.rows

    def test_all_ftv_drivers_render(self, ftv_matrix):
        m = ftv_matrix
        tables = [
            stragglers_wla_table(m, "t"),
            band_percentages_table(m, "t"),
            maxmin_table(m, "t"),
            rewriting_aet_table(m, "t"),
            rewriting_speedup_table(m, "t"),
            psi_speedup_table(m, "t", PSI_FTV_VARIANT_SETS),
            grapes_psi_by_size_table(m, "t"),
        ]
        for t in tables:
            assert t.rows

    def test_killed_pct_table(self, nfv_matrix, ftv_matrix):
        entries = [
            (
                "ppi", "Grapes/4", ftv_matrix,
                [("Grapes/1", rw) for rw in ("ILF", "IND", "DND")],
            ),
            (
                "yeast", "GQL", nfv_matrix,
                [("GQL", "Orig"), ("SPA", "Orig")],
            ),
        ]
        t = killed_pct_table(entries)
        assert len(t.rows) == 2

    def test_psi_race_time_is_min_plus_overhead(self, nfv_matrix):
        m = nfv_matrix
        over = OverheadModel(per_variant_steps=10)
        members = [("GQL", "Orig"), ("SPA", "Orig")]
        for u in m.units:
            t, killed = psi_race_time(m, u, members, over)
            recs = [m.record(u, a, r) for a, r in members]
            if all(r.killed for r in recs):
                assert killed
            else:
                best = min(
                    r.steps for r in recs if not r.killed
                )
                assert t == max(1, best + 20)

    def test_psi_speedup_mode_validation(self, nfv_matrix):
        with pytest.raises(ValueError):
            psi_speedup_table(
                nfv_matrix, "t", PSI_NFV_REWRITING_SETS, mode="avg"
            )
        with pytest.raises(ValueError):
            psi_multialg_speedup_table(
                nfv_matrix, "t", PSI_NFV_MULTIALG_SETS,
                baseline="GQL", mode="avg",
            )


KILLED = None
VARIANTS = ("Orig",) + PAPER_REWRITINGS + RANDOM_INSTANCES


def stub_matrix(sizes, steps, methods=("GQL", "SPA"), default=500):
    """A cost matrix of ``len(sizes)`` units, ``sizes[u]`` edges each:
    ``steps[(u, method, variant)]`` is an attempt's step count, or
    :data:`KILLED`; every other attempt completes in ``default`` steps.
    Thresholds: easy below 10 steps, killed at 1000."""
    thresholds = Thresholds(easy_steps=10, budget_steps=1000)
    records = {}
    for u in range(len(sizes)):
        for method in methods:
            for variant in VARIANTS:
                s = steps.get((u, method, variant), default)
                records[(u, method, variant)] = CostRecord(
                    steps=1000 if s is KILLED else s,
                    found=s is not KILLED,
                    killed=s is KILLED,
                )
    return NFVCostMatrix(
        dataset="stub",
        thresholds=thresholds,
        queries=[SimpleNamespace(num_edges=n) for n in sizes],
        methods=methods,
        variant_names=VARIANTS,
        records=records,
    )


NO_OVERHEAD = OverheadModel()


class TestAggregationArithmetic:
    """Every figure's arithmetic on a hand-written matrix: killed
    attempts charged the cap, QLA the mean of ratios, WLA the ratio of
    means (paper §3.5)."""

    def test_qla_and_wla_tell_different_stories(self):
        m = stub_matrix([4, 4], {
            (0, "GQL", "Orig"): 100, (1, "GQL", "Orig"): 1000,
            (0, "GQL", "ILF"): 1, (1, "GQL", "ILF"): 1000,
        }, methods=("GQL",))
        sets = [("s", ("Orig", "ILF"))]
        qla = psi_speedup_table(m, "t", sets, overhead=NO_OVERHEAD)
        wla = psi_speedup_table(
            m, "t", sets, mode="wla", overhead=NO_OVERHEAD
        )
        # QLA: avg(100/1, 1000/1000); WLA: (100 + 1000) / (1 + 1000)
        assert qla.rows == [["s", pytest.approx(50.5)]]
        assert wla.rows == [["s", pytest.approx(1100 / 1001)]]

    def test_multialg_speedup_is_over_the_baselines_original(self):
        m = stub_matrix([4, 4], {
            (0, "GQL", "Orig"): 100, (0, "SPA", "Orig"): 10,
            (1, "GQL", "Orig"): 40, (1, "SPA", "Orig"): KILLED,
        })
        sets = [("or", ("Orig",))]
        qla = psi_multialg_speedup_table(
            m, "t", sets, baseline="GQL", overhead=NO_OVERHEAD
        )
        wla = psi_multialg_speedup_table(
            m, "t", sets, baseline="GQL", mode="wla", overhead=NO_OVERHEAD
        )
        # races: 10 (SPA wins), 40 (SPA killed, GQL finishes)
        assert qla.rows == [["or", pytest.approx((10 + 1) / 2)]]
        assert wla.rows == [["or", pytest.approx(140 / 50)]]

    def test_a_race_is_its_fastest_finisher_plus_overhead(self):
        m = stub_matrix([4, 4], {
            (0, "GQL", "Orig"): 70, (0, "GQL", "ILF"): 30,
            (1, "GQL", "Orig"): KILLED, (1, "GQL", "ILF"): KILLED,
        })
        over = OverheadModel(base_steps=5, per_variant_steps=10)
        members = [("GQL", "Orig"), ("GQL", "ILF")]
        assert psi_race_time(m, 0, members, over) == (30 + 25, False)
        # every member killed: the budget, plus the same overhead
        assert psi_race_time(m, 1, members, over) == (1000 + 25, True)

    def test_psi_is_killed_only_when_every_member_is(self):
        m = stub_matrix([4, 4], {
            (0, "GQL", "Orig"): KILLED, (0, "SPA", "Orig"): 10,
            (1, "GQL", "Orig"): KILLED, (1, "SPA", "Orig"): KILLED,
        })
        members = [("GQL", "Orig"), ("SPA", "Orig")]
        t = killed_pct_table([("stub", "GQL", m, members)])
        assert t.rows == [["stub (GQL)", "GQL", 100.0, 50.0]]

    def test_stragglers_average_each_band(self):
        m = stub_matrix([4, 4, 4, 4], {
            (0, "GQL", "Orig"): 5, (1, "GQL", "Orig"): 100,
            (2, "GQL", "Orig"): 300, (3, "GQL", "Orig"): KILLED,
        }, methods=("GQL",))
        t = stragglers_wla_table(m, "t")
        # easy 5; 2''-600'' (100 + 300) / 2; completed (5 + 100 + 300) / 3
        assert t.rows == [["GQL", 5, 200, pytest.approx(135.0), 4]]
        assert band_percentages_table(m, "t").rows == [
            ["GQL", 25.0, 50.0, 25.0]
        ]

    def test_size_breakdown_reports_the_extreme_sizes(self):
        m = stub_matrix([4, 6, 8, 8], {
            (2, "GQL", "Orig"): 3, (3, "GQL", "Orig"): KILLED,
        }, methods=("GQL",))
        t = size_breakdown_table(m, "t")
        assert [row[:2] for row in t.rows] == [["4e", "GQL"], ["8e", "GQL"]]
        # 8 edges: one easy (3 steps), one killed, no 2''-600'' query
        easy, pct_easy, mid, pct_mid, pct_hard = t.rows[1][2:]
        assert (easy, pct_easy, pct_mid, pct_hard) == (3, 50.0, 0.0, 50.0)
        assert math.isnan(mid)

    def test_maxmin_charges_killed_at_the_cap_and_skips_all_killed(self):
        steps = {(0, "GQL", "RND0"): 10, (0, "GQL", "RND1"): 40}
        steps.update({(0, "GQL", i): 40 for i in RANDOM_INSTANCES[2:]})
        steps.update({(1, "GQL", i): KILLED for i in RANDOM_INSTANCES})
        steps.update({(2, "GQL", i): 100 for i in RANDOM_INSTANCES})
        steps[(2, "GQL", "RND3")] = KILLED
        t = maxmin_table(stub_matrix([4, 4, 4], steps, methods=("GQL",)), "t")
        # ratios 40/10 and 1000/100; unit 1 not helped
        assert t.rows[0][0] == "GQL"
        assert t.rows[0][1:] == pytest.approx(
            [7.0, 3.0, 4.0, 10.0, 7.0, 100 / 3]
        )

    def test_rewriting_aet_and_hard_pct(self):
        m = stub_matrix([4, 4], {
            (0, "GQL", "Orig"): KILLED, (1, "GQL", "Orig"): 10,
        }, methods=("GQL",))
        aet = {row[0]: row[1] for row in rewriting_aet_table(m, "t").rows}
        hard = {
            row[0]: row[1] for row in rewriting_hard_pct_table(m, "t").rows
        }
        assert aet["Orig"] == pytest.approx((1000 + 10) / 2)
        assert hard["Orig"] == 50.0
        for name in PAPER_REWRITINGS:
            assert aet[name] == 500
            assert hard[name] == 0.0

    def test_rewriting_speedup_is_orig_over_the_best_rewriting(self):
        steps = {
            (0, "GQL", "Orig"): 100, (0, "GQL", "DND"): 4,
            (1, "GQL", "Orig"): 8,
        }
        steps.update({
            (2, "GQL", n): KILLED for n in ("Orig",) + PAPER_REWRITINGS
        })
        t = rewriting_speedup_table(
            stub_matrix([4, 4, 4], steps, methods=("GQL",)), "t"
        )
        # speedups 100/4 and 8/8; unit 2 not helped
        assert t.rows[0][1:] == pytest.approx(
            [13.0, 12.0, 1.0, 25.0, 13.0, 100 / 3]
        )

    def test_alt_algorithm_speedup_is_over_the_sets_best(self):
        m = stub_matrix([4, 4], {
            (0, "GQL", "Orig"): 100, (0, "SPA", "Orig"): 10,
            (1, "GQL", "Orig"): 20, (1, "SPA", "Orig"): 40,
        })
        t = alt_algorithm_speedup_table(m, "t", [("pair", ("GQL", "SPA"))])
        assert [row[:2] for row in t.rows] == [
            ["pair", "GQL"], ["pair", "SPA"],
        ]
        # GQL: 100/10, 20/20; SPA: 10/10, 40/20
        assert t.rows[0][2:] == pytest.approx([5.5, 4.5, 1.0, 10.0, 5.5, 0.0])
        assert t.rows[1][2:] == pytest.approx([1.5, 0.5, 1.0, 2.0, 1.5, 0.0])

    def test_grapes_psi_by_size_races_grapes1_rewritings(self):
        m = stub_matrix([4, 8], {
            (0, "Grapes/4", "Orig"): 300, (1, "Grapes/4", "Orig"): 900,
            (0, "Grapes/1", "ILF"): 100, (1, "Grapes/1", "ILF"): KILLED,
        }, methods=("Grapes/1", "Grapes/4"))
        t = grapes_psi_by_size_table(m, "t", overhead=NO_OVERHEAD)
        # 8 edges: ILF killed, IND/DND/ILF+IND finish in 500
        assert t.rows == [["4e", 300.0, 100.0], ["8e", 900.0, 500.0]]


class TestTable:
    def test_row_length_checked(self):
        t = Table("x", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_formats(self):
        t = Table("title", ["col"])
        t.add_row(float("nan"))
        t.add_row(1234567.0)
        t.add_row(0.5)
        t.add_note("note text")
        text = t.render()
        assert "-" in text
        assert "1.23e+06" in text
        assert "0.50" in text
        assert "note text" in text

    def test_column_extraction(self):
        t = Table("x", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]
