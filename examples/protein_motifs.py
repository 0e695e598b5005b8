"""FTV serving on a PPI-like dataset: Grapes, GGSX and the served Ψ race.

The decision problem: which protein networks contain a given motif?
Loads the PPI-like family dataset into a :class:`repro.service.Service`,
indexes the same graphs with Grapes and GGSX, runs motif queries
through filtering + verification, and serves each motif with the
Ψ-framework racing rewritings inside the verification stage — the
staged race the service runs.  The served answers must be Grapes'.

Run:  PYTHONPATH=src python examples/protein_motifs.py
"""

from repro.datasets import summarize_collection
from repro.indexing import GGSXIndex, GrapesIndex
from repro.matching import Budget
from repro.service import QueryOptions, Service
from repro.workload import generate_workload

BUDGET_STEPS = 200_000
REWRITINGS = ("ILF", "IND", "DND", "ILF+IND")


def main() -> None:
    svc = Service(workers=len(REWRITINGS))
    svc.load_dataset("ppi", scale="tiny")
    graphs = svc.catalog.get("ppi").graphs
    summary = summarize_collection(graphs)
    print("PPI-like dataset:")
    for name, value in summary.as_rows():
        print(f"  {name:16} {value}")

    print("\nbuilding indexes (paths up to length 3)...")
    grapes = GrapesIndex(graphs, max_path_length=3, threads=1)
    grapes4 = grapes.with_threads(4)
    ggsx = GGSXIndex(graphs, max_path_length=3)
    print(f"  Grapes trie nodes: {grapes.trie.node_count}")
    print(f"  GGSX   trie nodes: {ggsx.trie.node_count}")

    budget = Budget(max_steps=BUDGET_STEPS)
    options = QueryOptions(rewritings=REWRITINGS)
    queries = generate_workload(graphs, 4, 10, seed=21)

    for query in queries:
        print(
            f"\nmotif {query.name} "
            f"(grown from graph {query.source_graph_id}):"
        )
        answers = {}
        for index in (grapes, grapes4, ggsx):
            result = index.query(query.graph, budget)
            answers[index] = result.matching_ids
            print(
                f"  {index.method_name:9} candidates="
                f"{result.candidate_ids} matches={result.matching_ids} "
                f"verification steps={result.total_steps}"
            )

        # the served Ψ race: one VF2 decision sweep per rewriting
        ticket = svc.submit(
            "ppi", query.graph, options=options, budget_steps=BUDGET_STEPS
        )
        svc.run_until_idle()
        served = ticket.result
        matches = list(served.matching_ids)
        print(
            f"  served Psi(VF2 x{len(REWRITINGS)} rewritings) "
            f"matches={matches} steps={served.steps} "
            f"winner={served.winner_label}"
        )
        assert matches == answers[grapes], "served answer diverged!"


if __name__ == "__main__":
    main()
