"""Correctness audits, run outside every timed window.

Answers are recomputed with ``matching/reference.py:ReferenceMatcher``
— plain backtracking with no filter, no ordering heuristic and no
rewriting — so an audit shares no code path with what it checks.  The
reference matches query vertices in id order; ``audit_order`` hands it
an isomorphic copy of each query numbered so that order is a sensible
one, which lets it decide every (query, stored graph) pair.  A pair it
still cannot decide within its cap counts as wrong: an answer nobody
verified is not a correct one.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from repro.graphs import LabeledGraph
from repro.harness import build_ftv_graphs
from repro.matching import Budget
from repro.matching.reference import ReferenceMatcher
from repro.service.loadgen import collection_digest, oracle_digest
from repro.workload import generate_workload

from .workloads import build_service, failed_answer

__all__ = ["Audit", "audit_window", "audit_order", "audit_ftv",
           "audit_nfv", "audit_collection", "audit_recovery"]

#: answered queries of the window recomputed per run (the check
#: population is recomputed whole)
SAMPLE = 100
#: reference step cap per (query, stored graph) pair.  Renumbered
#: queries mostly need a few thousand steps; the worst seen needed
#: under 100 000 on ``ppi`` and 3 400 000 on ``yeast`` (0.5 s)
PAIR_STEPS = 50_000_000


@dataclass
class Audit:
    """Outcome of one audit: how much was checked, how much was wrong."""

    sampled: int = 0
    #: (query, graph) pairs the reference decided within its cap
    decided: int = 0
    undecided: int = 0
    #: sampled queries with at least one pair answered wrongly or left
    #: undecided
    wrong: int = 0

    def as_dict(self) -> dict:
        return {
            "sampled": self.sampled, "decided": self.decided,
            "undecided": self.undecided, "wrong": self.wrong,
        }


def _answered(rows: list) -> list:
    """The (query, answer) pairs of ``rows`` that carry an answer; a
    failed operation is already counted as one."""
    return [row[:2] for row in rows if not failed_answer(row[1])]


def _sample(window, seed: int) -> list:
    """A seeded sample of the window's answered queries plus every
    answered check query."""
    rows = _answered(window.served)
    rng = random.Random(f"{seed}:audit")
    return (
        rng.sample(rows, min(SAMPLE, len(rows)))
        + _answered(window.checked)
    )


def audit_order(query: LabeledGraph, rarity: Counter) -> LabeledGraph:
    """``query`` renumbered: the vertex with the rarest label first,
    then always the unplaced vertex with the most placed neighbours
    (rarer label on ties).  The reference then rejects a candidate on
    its first missing edge instead of after enumerating label-mates of
    vertices it has no edge to yet.  Which graphs match and how many
    embeddings there are do not depend on the numbering."""
    labels, adj = query.labels, query.adjacency()
    left = set(range(query.order))
    order: list[int] = []
    placed: set[int] = set()
    while left:
        v = min(left, key=lambda u: (
            -len(placed.intersection(adj[u])), rarity[labels[u]],
            -len(adj[u]), u,
        ))
        left.discard(v)
        placed.add(v)
        order.append(v)
    new = {v: i for i, v in enumerate(order)}
    return LabeledGraph.from_edges(
        [labels[v] for v in order],
        [(new[a], new[b]) for a, b in query.edges()],
        name=query.name,
    )


def audit_ftv(rows: list, live_graphs: dict) -> Audit:
    """Matching-graph-id sets of ``rows`` ((query, answer) pairs)
    against the reference over every live stored graph
    (``live_graphs``: global id -> graph), with no filter in between."""
    ref = ReferenceMatcher()
    budget = Budget(max_steps=PAIR_STEPS)
    rarity = Counter(l for g in live_graphs.values() for l in g.labels)
    out = Audit()
    for query, got in rows:
        out.sampled += 1
        claimed = set(got[2])
        bad = bool(claimed - live_graphs.keys())
        renumbered = audit_order(query, rarity)
        for gid, graph in live_graphs.items():
            outcome = ref.decide(graph, renumbered, budget=budget)
            if outcome.killed:
                out.undecided += 1
                bad = True
                continue
            out.decided += 1
            bad = bad or outcome.found != (gid in claimed)
        out.wrong += bad
    return out


def audit_nfv(rows: list, graph, cap: int) -> Audit:
    """``found`` — and the embedding count where below ``cap`` — of
    ``rows`` against the reference on the one stored graph."""
    ref = ReferenceMatcher()
    budget = Budget(max_steps=PAIR_STEPS)
    rarity = Counter(graph.labels)
    out = Audit()
    for query, got in rows:
        out.sampled += 1
        outcome = ref.run(
            graph, audit_order(query, rarity), budget=budget,
            max_embeddings=cap, count_only=True,
        )
        if outcome.killed:
            out.undecided += 1
            out.wrong += 1
            continue
        out.decided += 1
        found, count, _ids = got
        bad = found != outcome.found
        if outcome.num_embeddings < cap:
            bad = bad or count != outcome.num_embeddings
        out.wrong += bad
    return out


def _probes(service, dataset: str, seed: int) -> list:
    entry = service.catalog.get(dataset)
    live = [entry.graphs[g] for g in entry.live_graph_ids()]
    return [q.graph for q in generate_workload(live, 6, 3, seed=seed)]


def audit_collection(service, dataset: str, seed: int) -> Audit:
    """The served collection state against a from-scratch rebuild of
    exactly its live graphs."""
    probes = _probes(service, dataset, seed)
    same = (
        collection_digest(service, dataset, probes)
        == oracle_digest(service, dataset, probes)
    )
    return Audit(sampled=1, decided=len(probes), wrong=int(not same))


def audit_recovery(
    live, spec, sizes, inputs, store_dir: str, seed: int
) -> tuple[Audit, float]:
    """Every acknowledged mutation survives a crash: a second service
    cold-boots from the checkpoint, replays the journal, and must serve
    the same collection.  ``wrong`` counts acknowledged mutations the
    reborn collection is missing (at least 1 on any digest mismatch).
    Returns the audit and the seconds ``replay_journal`` took."""
    reborn = build_service(
        spec, sizes, inputs, store=store_dir, journal=store_dir
    )
    start = perf_counter()
    reborn.replay_journal()
    replay_s = perf_counter() - start
    probes = _probes(live, spec.dataset, seed)
    same = (
        collection_digest(reborn, spec.dataset, probes)
        == collection_digest(live, spec.dataset, probes)
    )
    lost = 0
    if not same:
        mine = set(live.catalog.get(spec.dataset).live_graph_ids())
        theirs = set(reborn.catalog.get(spec.dataset).live_graph_ids())
        lost = max(1, len(mine ^ theirs))
    return Audit(sampled=1, decided=len(probes), wrong=lost), replay_s


def audit_window(spec, sizes, inputs, window, seed: int) -> tuple:
    """The audit that belongs to ``spec``'s workload; returns ``(Audit,
    layer metrics measured on the way)``."""
    if spec.cycles:
        # every boot cycle already compared booted against fresh; the
        # probes' answers are recomputed against the reference as well
        live = dict(enumerate(build_ftv_graphs(spec.dataset, sizes.scale)))
        return audit_ftv(_sample(window, seed), live), {}
    service = window.service
    entry = service.catalog.get(spec.dataset)
    if spec.nfv:
        cap = spec.options().max_embeddings
        return audit_nfv(_sample(window, seed), entry.graphs[0], cap), {}
    live = {g: entry.graphs[g] for g in entry.live_graph_ids()}
    if not inputs.mutations:
        return audit_ftv(_sample(window, seed), live), {}
    # the window's answers were given on collection states that are
    # gone; the checks were answered on the final one
    audit = audit_ftv(_answered(window.checked), live)
    collection = audit_collection(service, spec.dataset, seed)
    recovery, replay_s = audit_recovery(
        service, spec, sizes, inputs, window.store_dir, seed
    )
    audit.sampled += collection.sampled + recovery.sampled
    audit.decided += collection.decided + recovery.decided
    audit.wrong += collection.wrong + recovery.wrong
    return audit, {"store.journal.replay_s": replay_s}
