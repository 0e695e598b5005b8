"""Ablation — FTV feature path length vs filtering power.

Grapes and GGSX index paths up to a maximum length (4 in the paper;
3 by default here, ``FTVExperimentConfig.max_path_length``).  Longer
features prune candidate sets harder but cost more to index.  This
ablation quantifies the trade-off on the PPI-like dataset:
candidate-set sizes shrink monotonically with the path length while
the trie grows.
"""

import statistics

from conftest import publish

from repro.datasets import ppi_like
from repro.harness import Table
from repro.indexing import GrapesIndex
from repro.workload import generate_workload


def test_path_length_sweep(benchmark):
    graphs = ppi_like(num_graphs=4, avg_nodes=80, num_labels=8, seed=3)
    queries = generate_workload(graphs, 8, 8, seed=17)

    table = Table(
        "Ablation: Grapes feature path length vs filtering power (PPI)",
        [
            "max path length", "trie nodes", "avg candidates",
            "avg relevant-component vertices",
        ],
    )
    prev_cands = None
    indexes = {}
    for maxlen in (1, 2, 3):
        index = GrapesIndex(graphs, max_path_length=maxlen, threads=1)
        indexes[maxlen] = index
        cand_sizes = []
        region_sizes = []
        for q in queries:
            cands = index.filter(q.graph)
            cand_sizes.append(len(cands))
            for gid in cands:
                comps = index.relevant_components(q.graph, gid)
                region_sizes.append(
                    sum(sub.order for sub, _ in comps)
                )
        avg_c = statistics.mean(cand_sizes)
        table.add_row(
            maxlen,
            index.trie.node_count,
            avg_c,
            statistics.mean(region_sizes) if region_sizes else 0.0,
        )
        if prev_cands is not None:
            assert avg_c <= prev_cands + 1e-9  # longer paths prune harder
        prev_cands = avg_c
    publish(table)

    benchmark(lambda: indexes[2].filter(queries[0].graph))
