"""Tables 1 and 2 — dataset characteristics.

Paper: the statistics of the FTV datasets (Table 1: PPI and the
GraphGen synthetic) and NFV datasets (Table 2: yeast, human, wordnet).
This bench prints the same rows for the generated stand-ins so the
scale mapping is auditable (the ``repro.datasets`` docstring gives the
substitution rationale — node counts and label alphabets scale
together to preserve per-label multiplicity).
"""

from conftest import publish

from repro.datasets import summarize_collection, summarize_graph
from repro.harness import build_ftv_graphs, build_nfv_graph
from repro.harness.figures import FIGURES


def test_table1_ftv_datasets(benchmark):
    datasets = {
        name: build_ftv_graphs(name) for name in ("ppi", "synthetic")
    }
    benchmark(lambda: summarize_collection(datasets["ppi"]))
    (table,) = FIGURES["table1"].tables()
    publish(table)
    # paper regime: every PPI graph is disconnected, synthetic connected
    assert all(
        len(g.connected_components()) > 1 for g in datasets["ppi"]
    )
    assert all(g.is_connected() for g in datasets["synthetic"])
    # synthetic denser than PPI (paper: 0.020 vs 0.0022)
    ppi_density = summarize_collection(datasets["ppi"]).avg_density
    syn_density = summarize_collection(
        datasets["synthetic"]
    ).avg_density
    assert syn_density > ppi_density


def test_table2_nfv_datasets(benchmark):
    graphs = {
        name: build_nfv_graph(name)
        for name in ("yeast", "human", "wordnet")
    }
    benchmark(lambda: summarize_graph(graphs["yeast"]))
    (table,) = FIGURES["table2"].tables()
    publish(table)
    # paper regime ordering: human densest, wordnet sparsest + fewest
    # labels with the heaviest skew
    assert (
        graphs["human"].average_degree()
        > graphs["yeast"].average_degree()
        > graphs["wordnet"].average_degree()
    )
    assert len(graphs["wordnet"].distinct_labels()) == 5
