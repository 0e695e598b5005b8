"""VF2-specific tests: pruning soundness, ID sensitivity, root slicing,
pinned step bills and plan sharing."""

import hashlib
import random

import pytest

from repro.graphs import LabeledGraph, gnm_graph, uniform_labels
from repro.harness import build_ftv_graphs
from repro.matching import (
    SELECTION_POLICIES,
    Budget,
    GraphIndex,
    VF2Matcher,
    VF2Plan,
    drive,
    make_matcher,
)
from repro.service import Service
from repro.service.planner import Rewrite
from repro.workload import extract_query

from .conftest import canonical_embeddings, random_query_from


def test_finds_triangle():
    g = LabeledGraph.from_edges(
        ["A", "A", "A", "A"], [(0, 1), (1, 2), (0, 2), (2, 3)]
    )
    q = LabeledGraph.from_edges(["A", "A", "A"], [(0, 1), (1, 2), (0, 2)])
    out = VF2Matcher().run(g, q, max_embeddings=100)
    # the triangle {0,1,2} has 3! automorphic embeddings
    assert out.num_embeddings == 6


def test_non_induced_semantics():
    """A path query must match inside a triangle (non-induced sub-iso)."""
    g = LabeledGraph.from_edges(["A", "A", "A"], [(0, 1), (1, 2), (0, 2)])
    q = LabeledGraph.from_edges(["A", "A", "A"], [(0, 1), (1, 2)])
    out = VF2Matcher().run(g, q, max_embeddings=100)
    assert out.found
    assert out.num_embeddings == 6  # 3 choices of middle x 2 directions


def test_label_mismatch_pruned_immediately():
    g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
    q = LabeledGraph.from_edges(["A", "C"], [(0, 1)])
    out = VF2Matcher().run(g, q)
    assert not out.found
    assert out.exhausted


def test_query_larger_than_graph_refuted_for_free():
    g = LabeledGraph.from_edges(["A", "B"], [(0, 1)])
    q = LabeledGraph.from_edges(
        ["A", "B", "A"], [(0, 1), (1, 2), (0, 2)]
    )
    out = VF2Matcher().run(g, q)
    assert not out.found
    assert out.steps == 0


def test_deep_query_needs_no_recursion():
    """A query as deep as the interpreter's recursion limit: the
    recursive search died with RecursionError (one generator frame per
    matched vertex); the explicit-stack loop walks the path."""
    n = 1500
    path = LabeledGraph.from_edges(
        ["A"] * n, [(i, i + 1) for i in range(n - 1)]
    )
    out = VF2Matcher().decide(path, path)
    assert out.found
    assert out.steps == n
    assert out.exhausted and not out.killed


#: sha256 over "query,graph,policy,steps,embeddings;" of the sweep
#: below, computed with the recursive search at the parent of the
#: commit that introduced the plan (PR 13)
PPI_TINY_BILLS = (
    "39d84c8932bccd6af19d2975ce1186744349aaee95e2fa4e747d2821457c55fc"
)


def test_step_bills_pinned_on_ppi_tiny():
    """The bills, not just the answers: every (query, graph, policy)
    step total of a seeded sweep is what the recursive search charged."""
    graphs = build_ftv_graphs("ppi", "tiny")
    rng = random.Random(1304)
    queries = [
        extract_query(graphs[i % len(graphs)], 5 + i % 6, rng)
        for i in range(24)
    ]
    digest = hashlib.sha256()
    total = 0
    for qi, q in enumerate(queries):
        for gi, g in enumerate(graphs):
            for policy in SELECTION_POLICIES:
                out = VF2Matcher(policy).run(
                    g, q, budget=Budget(max_steps=50_000)
                )
                total += out.steps
                digest.update(
                    f"{qi},{gi},{policy},{out.steps},"
                    f"{out.num_embeddings};".encode()
                )
    assert total == 46_592
    assert digest.hexdigest() == PPI_TINY_BILLS


def test_node_id_order_changes_cost(small_store):
    """The reproduction's central lever: permuting query IDs changes the
    VF2 step count (while preserving the answer)."""
    query = random_query_from(small_store, 6, 3)
    costs = set()
    for seed in range(12):
        perm = list(query.vertices())
        random.Random(seed).shuffle(perm)
        out = VF2Matcher().run(
            small_store, query.permuted(perm), max_embeddings=1
        )
        costs.add(out.steps)
    assert len(costs) > 1


class TestRootSlicing:
    """Grapes' parallelisation contract: slicing the root candidates
    partitions the search exactly."""

    def _setup(self):
        rng = random.Random(17)
        g = gnm_graph(
            30, 70, uniform_labels(30, ["A", "B"], rng), rng
        )
        q = random_query_from(g, 5, 23)
        return g, q

    def test_slices_cover_full_search(self):
        g, q = self._setup()
        m = VF2Matcher()
        ix = m.prepare(g)
        full = m.run(ix, q, max_embeddings=10**6)
        roots = ix.candidates_by_label(q.label(0))
        half = len(roots) // 2
        parts = [roots[:half], roots[half:]]
        embeddings = []
        total_steps = 0
        for part in parts:
            gen = m.engine(
                ix, q, max_embeddings=10**6, root_candidates=tuple(part)
            )
            out = drive(gen)
            embeddings.extend(out.embeddings)
            total_steps += out.steps
        assert canonical_embeddings(embeddings) == canonical_embeddings(
            full.embeddings
        )
        assert total_steps == full.steps

    def test_slices_sharing_one_plan_reproduce_the_single_run(self):
        """Grapes' chunks: contiguous root slices, one shared plan.
        Run in sequence they visit what the single run visits, in its
        order, and every prefix of slices costs exactly the single
        run's steps over those roots (only the batching differs: a
        slice end flushes failed root probes the single run carries
        into its next batch)."""
        g, q = self._setup()
        m = VF2Matcher()
        ix = m.prepare(g)
        plan = m.plan(q)
        full = m.run(ix, q, max_embeddings=10**6)
        roots = ix.candidates_by_label(q.label(0))
        assert len(roots) >= 4
        cuts = [0, 1, len(roots) // 3, len(roots) // 2, len(roots)]
        steps = []
        embeddings = []
        for lo, hi in zip(cuts, cuts[1:]):
            out = drive(m.engine(
                ix, q, max_embeddings=10**6,
                root_candidates=tuple(roots[lo:hi]), plan=plan,
            ))
            steps.append(out.steps)
            embeddings.extend(out.embeddings)
            # the slices so far == one unsliced run over their roots
            prefix = drive(m.engine(
                ix, q, max_embeddings=10**6,
                root_candidates=tuple(roots[:hi]),
            ))
            assert prefix.steps == sum(steps)
            assert prefix.embeddings == embeddings
        assert sum(steps) == full.steps
        assert embeddings == full.embeddings

    def test_roots_are_a_set_tried_in_ascending_id_order(self):
        """Listing the roots backwards, or some of them twice, changes
        nothing: the candidate order is ascending ID at every level and
        no root is tried (or billed) twice."""
        g, q = self._setup()
        m = VF2Matcher()
        ix = m.prepare(g)
        roots = ix.candidates_by_label(q.label(0))
        assert len(roots) >= 4
        want = drive(m.engine(
            ix, q, max_embeddings=10**6, root_candidates=roots
        ))
        muddled = list(roots[::-1]) + list(roots[:3])
        got = drive(m.engine(
            ix, q, max_embeddings=10**6, root_candidates=tuple(muddled)
        ))
        assert got.steps == want.steps
        assert got.embeddings == want.embeddings

    def test_empty_slice_is_cheap(self):
        g, q = self._setup()
        m = VF2Matcher()
        ix = m.prepare(g)
        gen = m.engine(ix, q, max_embeddings=1, root_candidates=())
        out = drive(gen)
        assert not out.found
        assert out.steps == 0

    def test_root_filter_ignores_wrong_labels(self):
        g, q = self._setup()
        m = VF2Matcher()
        ix = m.prepare(g)
        # pass every vertex: label filtering inside must keep it sound
        gen = m.engine(
            ix, q, max_embeddings=10**6,
            root_candidates=tuple(g.vertices()),
        )
        out = drive(gen)
        ref = m.run(ix, q, max_embeddings=10**6)
        assert canonical_embeddings(out.embeddings) == (
            canonical_embeddings(ref.embeddings)
        )


def test_lookahead_never_false_dismisses(medium_store):
    """VF2 with pruning finds exactly what brute force finds (already
    covered by agreement tests; this pins a larger store)."""
    query = random_query_from(medium_store, 6, 41)
    ref = make_matcher("REF").run(medium_store, query, max_embeddings=10**6)
    out = VF2Matcher().run(medium_store, query, max_embeddings=10**6)
    assert canonical_embeddings(out.embeddings) == canonical_embeddings(
        ref.embeddings
    )


def test_popcount_lookahead_is_the_adjacency_walk():
    """Lookahead rules 2/3, graph side, two ways on generated (graph,
    matched set, candidate) triples: the walk over ``adj[c]`` the
    scanning search did (and ``tests/_vf2_recursive.py`` does), and the
    two popcounts the engine takes against ``front``, the OR of the
    matched vertices' neighbourhoods.  Same counts, so the same verdict
    for every ``(q_frontier, q_total)`` a query level can ask for."""
    rng = random.Random(2004)
    seen_frontier = seen_rest = 0
    for _ in range(300):
        n = rng.randint(2, 40)
        g = gnm_graph(
            n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)),
            uniform_labels(n, ["A", "B"], rng), rng,
        )
        index = GraphIndex(g)
        adj = index.adjacency
        adj_masks = index.adj_masks
        matched = rng.sample(range(n), rng.randint(0, n - 1))
        matched_mask = sum(1 << v for v in matched)
        front = 0
        for v in matched:
            front |= adj_masks[v]
        for c in set(range(n)) - set(matched):
            g_frontier = g_rest = 0
            for d in adj[c]:
                if (matched_mask >> d) & 1:
                    continue
                if adj_masks[d] & matched_mask:
                    g_frontier += 1
                else:
                    g_rest += 1
            free = adj_masks[c] & ~matched_mask
            assert (free & front).bit_count() == g_frontier
            assert free.bit_count() == g_frontier + g_rest
            seen_frontier += g_frontier
            seen_rest += g_rest
    assert seen_frontier and seen_rest


class TestPlanSharing:
    """One plan per rewritten query, not one per candidate graph."""

    @pytest.fixture()
    def plans_built(self, monkeypatch):
        built = []
        init = VF2Plan.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(VF2Plan, "__init__", counting)
        return built

    def _sweep_inputs(self):
        svc = Service(workers=2)
        svc.load_dataset("ppi", scale="tiny")
        index = svc.catalog.get("ppi").shard_entry(0).ftv_index
        graphs = build_ftv_graphs("ppi", "tiny")
        rng = random.Random(5)
        for _ in range(50):
            q = extract_query(graphs[0], 2, rng)
            candidates = index.filter(q)
            if len(candidates) >= 2:
                return svc, index, q, candidates
        raise AssertionError("no query with two candidates")

    def test_one_sweep_builds_one_plan(self, plans_built):
        svc, index, q, candidates = self._sweep_inputs()
        out = drive(
            svc.planner.ftv_sweep(
                index, Rewrite(q), candidates, False, "ppi"
            )
        )
        assert len(plans_built) == 1
        # and the shared plan bills each graph what a solo run costs
        solo = {
            gid: VF2Matcher().run(
                index.graph_index(gid), q, max_embeddings=1
            )
            for gid in candidates
        }
        assert out.steps == sum(o.steps for o in solo.values())
        assert out.matching_ids == tuple(
            gid for gid in candidates if solo[gid].found
        )
        assert svc.planner.graph_bills == {
            ("ppi", gid): o.steps for gid, o in solo.items() if o.steps
        }

    def test_an_empty_sweep_builds_none(self, plans_built):
        svc, index, q, _ = self._sweep_inputs()
        out = drive(
            svc.planner.ftv_sweep(index, Rewrite(q), [], False, "ppi")
        )
        assert not out.found and out.steps == 0
        assert plans_built == []

    def _sharded_ticket(self, hits: bool):
        """A 2-shard ``Orig,DND`` service and a query both shards have
        candidates for (``hits``) or neither has."""
        svc = Service(workers=2, shards=2, routing=False)
        svc.load_dataset("ppi", scale="tiny")
        entry = svc.catalog.get("ppi")
        indexes = [
            entry.shard_entry(s).ftv_index
            for s in entry.involved_shards()
        ]
        assert len(indexes) == 2
        if not hits:
            return svc, LabeledGraph.from_edges(
                ["no-such-label"] * 2, [(0, 1)]
            )
        graphs = build_ftv_graphs("ppi", "tiny")
        rng = random.Random(11)
        for _ in range(200):
            q = extract_query(graphs[rng.randrange(len(graphs))], 3, rng)
            if all(index.filter(q) for index in indexes):
                return svc, q
        raise AssertionError("no query with candidates on both shards")

    def test_a_sharded_ticket_plans_once_per_rewritten_query(
        self, plans_built
    ):
        """Two shards x two variants are four sweeps; what they search
        by is one plan per *distinct* rewritten query."""
        svc, q = self._sharded_ticket(hits=True)
        ticket = svc.submit("ppi", q)
        rewrites = svc.fanout.flights[ticket.id].rewrites
        svc.run_until_idle()
        assert ticket.done and ticket.fanout == 2
        assert 1 <= len(rewrites) <= 2
        assert len(plans_built) == len(rewrites)
        assert {id(r.plan) for r in rewrites.values()} == {
            id(plan) for plan in plans_built
        }
        # shared plans answer what per-sweep plans answered
        solo = Service(workers=2)
        solo.load_dataset("ppi", scale="tiny")
        other = solo.submit("ppi", q)
        solo.run_until_idle()
        assert ticket.result.matching_ids == other.result.matching_ids

    def test_a_sharded_ticket_with_empty_sweeps_builds_none(
        self, plans_built
    ):
        svc, q = self._sharded_ticket(hits=False)
        ticket = svc.submit("ppi", q)
        rewrites = svc.fanout.flights[ticket.id].rewrites
        svc.run_until_idle()
        assert ticket.done and ticket.fanout == 2
        assert not ticket.result.found
        assert rewrites and plans_built == []

    def test_index_query_builds_one_plan(self, plans_built):
        _, index, q, candidates = self._sweep_inputs()
        result = index.query(q)
        assert result.candidate_ids == candidates
        assert len(plans_built) == 1

    def test_rarity_has_no_shared_plan(self, small_store):
        m = VF2Matcher(selection="rarity")
        q = random_query_from(small_store, 5, 3)
        assert m.plan(q) is None

    def test_rarity_plans_per_stored_graph_inside_the_engine(
        self, small_store, plans_built
    ):
        m = VF2Matcher(selection="rarity")
        q = random_query_from(small_store, 5, 3)
        ix = m.prepare(small_store)
        for _ in range(3):
            drive(m.engine(ix, q, max_embeddings=1, plan=m.plan(q)))
        assert len(plans_built) == 3

    def test_a_foreign_plan_is_refused(self, small_store):
        m = VF2Matcher()
        ix = m.prepare(small_store)
        q = random_query_from(small_store, 5, 3)
        other = random_query_from(small_store, 5, 4)
        with pytest.raises(ValueError):
            next(m.engine(ix, q, plan=m.plan(other)))
        with pytest.raises(ValueError):
            next(m.engine(ix, q, plan=VF2Matcher("degree").plan(q)))


class TestSelectionPolicies:
    def test_all_policies_agree_on_answers(self, small_store):
        query = random_query_from(small_store, 6, 51)
        base = None
        for policy in SELECTION_POLICIES:
            out = VF2Matcher(selection=policy).run(
                small_store, query, max_embeddings=10**6
            )
            embs = canonical_embeddings(out.embeddings)
            if base is None:
                base = embs
            assert embs == base

    def test_policies_change_cost(self, medium_store):
        query = random_query_from(medium_store, 8, 61)
        steps = {
            policy: VF2Matcher(selection=policy)
            .run(medium_store, query, max_embeddings=1)
            .steps
            for policy in SELECTION_POLICIES
        }
        assert len(set(steps.values())) > 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            VF2Matcher(selection="alphabetical")

    def test_policy_reflected_in_name(self):
        assert VF2Matcher().name == "VF2"
        assert VF2Matcher(selection="rarity").name == "VF2[rarity]"
