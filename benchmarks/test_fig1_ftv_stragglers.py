"""Fig. 1 — stragglers in FTV methods.

Paper: (a) synthetic and (b) PPI WLA-average execution times of easy /
2''-600'' / completed queries for Grapes/1, Grapes/4 (and GGSX on PPI);
(c) percentages of easy, 2''-600'' and hard queries.  Expected shape:
the completed average sits far above the easy average (stragglers
dominate), and Grapes/4 has a smaller hard share than Grapes/1.
"""

from conftest import publish


def test_fig1a_synthetic_wla(tables, benchmark):
    benchmark(lambda: tables("fig1", "synthetic"))
    table, _bands = tables("fig1", "synthetic")
    publish(table)
    easy = table.column("easy")
    completed = table.column("completed")
    for e, c in zip(easy, completed):
        assert c >= e  # stragglers pull the completed average up


def test_fig1b_ppi_wla(tables, benchmark):
    benchmark(lambda: tables("fig1", "ppi"))
    table, _bands = tables("fig1", "ppi")
    publish(table)
    assert set(table.column("method")) == {
        "Grapes/1", "Grapes/4", "GGSX"
    }


def test_fig1c_band_percentages(tables, benchmark):
    benchmark(lambda: tables("fig1", "ppi"))
    for name in ("synthetic", "ppi"):
        _wla, table = tables("fig1", name)
        publish(table)
        pct = {
            row[0]: row[1] + row[2] + row[3] for row in table.rows
        }
        for method, total in pct.items():
            assert abs(total - 100.0) < 1e-6, method
