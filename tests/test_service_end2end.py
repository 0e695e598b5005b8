"""End-to-end service tests: determinism, caching, fairness, FTV."""

import json
import random

import pytest

from repro.graphs import LabeledGraph
from repro.harness import build_ftv_graphs, build_nfv_graph
from repro.matching import Budget
from repro.psi import PsiNFV
from repro.service import (
    AdmissionController,
    QueryOptions,
    Service,
    TenantPolicy,
    TicketState,
    results_digest,
    run_closed_loop,
)
from repro.service.planner import HEAD_START_STEPS, race_starts
from repro.service.schema import SpecError
from repro.workload import (
    default_tenant_mixes,
    extract_query,
    generate_tenant_stream,
)

OPTS = QueryOptions(algorithms=("GQL", "SPA"), rewritings=("Orig", "DND"))
BUDGET = 60_000


@pytest.fixture(scope="module")
def store():
    return build_nfv_graph("yeast", "tiny")


def make_service(workers=4):
    svc = Service(
        workers=workers,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
    )
    svc.load_dataset("yeast", scale="tiny")
    return svc


def flood(svc, dataset, stream):
    """Open loop: submit the whole stream up front, then drain."""
    tickets = [
        svc.submit(dataset, mq.query.graph, tenant=mq.tenant, options=OPTS)
        for mq in stream
    ]
    svc.run_until_idle()
    return tickets


def streams_for(store, queries_per_tenant=8, tenants=3, seed=42):
    mixes = default_tenant_mixes(
        tenants, queries_per_tenant, sizes=(4, 6, 8), repeat_fraction=0.4
    )
    return {
        m.tenant: generate_tenant_stream([store], m, seed=seed)
        for m in mixes
    }


class TestDeterminism:
    def test_two_runs_identical(self, store):
        """Same winners, step totals, and latencies across fresh runs."""
        reports = []
        for _ in range(2):
            svc = make_service()
            rep = run_closed_loop(
                svc, "yeast", streams_for(store), options=OPTS
            )
            reports.append(rep)
        a, b = reports
        assert a.digest == b.digest
        assert a.virtual_steps == b.virtual_steps
        la = [(t.tenant, t.query.name, t.latency) for t in a.completed]
        lb = [(t.tenant, t.query.name, t.latency) for t in b.completed]
        assert la == lb

    def test_open_loop_flood_deterministic(self, store):
        mixes = default_tenant_mixes(2, 5, sizes=(4, 6))
        a, b = (generate_tenant_stream([store], m, seed=7) for m in mixes)
        stream = [mq for pair in zip(a, b) for mq in pair]
        digests = set()
        for _ in range(2):
            tickets = flood(make_service(), "yeast", stream)
            digests.add(results_digest(
                [t for t in tickets if t.state is TicketState.DONE]
            ))
        assert len(digests) == 1


class TestEquivalenceWithPsi:
    def test_service_result_matches_solo_race(self, store):
        """A served query's bill equals PsiNFV.race under the planner's
        schedule, concurrency or not."""
        svc = make_service()
        streams = streams_for(store, queries_per_tenant=6)
        rep = run_closed_loop(svc, "yeast", streams, options=OPTS)
        entry = svc.catalog.get("yeast")
        psi = entry.shard_entry(entry.home_shard).psi
        variants = OPTS.variants("nfv")
        starts = race_starts(variants, BUDGET)
        checked = 0
        for t in rep.completed:
            if t.cache_hit or t.coalesced:
                # both report the leader/original instance's historical
                # race, not a fresh run of this instance
                continue
            ref = psi.race(
                t.query,
                variants,
                budget=Budget(max_steps=BUDGET),
                count_only=True,
                starts=starts,
            )
            assert t.result.winner == ref.winner
            assert t.result.steps == ref.steps
            assert dict(t.result.per_variant_steps) == (
                ref.race.per_variant_steps
            )
            checked += 1
        assert checked >= 8

    def test_staged_answers_are_the_full_races(self, store):
        """The staged schedule moves winners, bills and latency, never
        what is answered: each served answer is the full-width race's."""
        svc = make_service()
        streams = streams_for(store, queries_per_tenant=6)
        rep = run_closed_loop(svc, "yeast", streams, options=OPTS)
        entry = svc.catalog.get("yeast")
        psi = entry.shard_entry(entry.home_shard).psi
        for t in rep.completed:
            full = psi.race(
                t.query,
                OPTS.variants("nfv"),
                budget=Budget(max_steps=BUDGET),
                count_only=True,
            )
            assert t.result.found == full.found
            assert t.result.killed == full.race.killed
            assert t.result.num_embeddings == (
                full.race.outcome.num_embeddings if full.race.outcome else 0
            )


class TestStagedRace:
    """``service.races_head_only`` counts the NFV races whose head
    settled them before the field started, and nothing else; a budget
    the head start would swallow is raced full width."""

    @staticmethod
    def serve_one(store, query):
        svc = make_service()
        ticket = svc.submit("yeast", query, options=OPTS)
        svc.run_until_idle()
        return svc, ticket

    def head_steps(self, store, query):
        psi = PsiNFV(store)
        head = OPTS.variants("nfv")[0]
        return psi.run_variant(query, head, count_only=True).steps

    def test_head_settled_race_counts(self, store):
        query = extract_query(store, 4, random.Random(1))
        assert self.head_steps(store, query) < HEAD_START_STEPS
        svc, ticket = self.serve_one(store, query)
        result = ticket.result
        assert result.winner == OPTS.variants("nfv")[0]
        assert all(
            steps == 0
            for v, steps in result.per_variant_steps
            if v != result.winner
        )
        assert svc.metrics.value("service.races_head_only") == 1

    def test_field_joined_race_does_not_count(self, store):
        query = next(
            q for q in (
                extract_query(store, 12, random.Random(seed))
                for seed in range(200)
            )
            if self.head_steps(store, q) > HEAD_START_STEPS
        )
        svc, ticket = self.serve_one(store, query)
        assert any(
            steps for v, steps in ticket.result.per_variant_steps
            if v != OPTS.variants("nfv")[0]
        )
        assert svc.metrics.value("service.races_head_only") == 0

    def test_a_budget_inside_the_head_start_races_full_width(self, store):
        """A budget the head would exhaust before the field joins is
        raced full width from step 0: killed when the full race is,
        not after idling in a slot until the field's start."""
        query = extract_query(store, 4, random.Random(1))
        variants = OPTS.variants("nfv")
        assert race_starts(variants, 100) is None
        full = PsiNFV(store).race(
            query, variants, budget=Budget(max_steps=100), count_only=True
        )
        assert full.race.killed
        svc = make_service()
        ticket = svc.submit("yeast", query, options=OPTS, budget_steps=100)
        svc.run_until_idle()
        assert ticket.result.killed
        assert ticket.result.steps == full.steps
        assert svc.dispatcher.ticks.value <= -(-100 // svc.dispatcher.quantum)

    def test_counter_stays_out_of_stats(self, store):
        svc, _ = self.serve_one(
            store, extract_query(store, 4, random.Random(1))
        )
        assert svc.metrics.value("service.races_head_only") == 1
        assert "races_head_only" not in json.dumps(svc.stats())


class TestResultCaching:
    def test_repeats_hit(self, store):
        svc = make_service()
        rep = run_closed_loop(
            svc, "yeast", streams_for(store), options=OPTS
        )
        cache = rep.metrics["service.result_cache"]
        assert cache["hits"] > 0
        hits = [t for t in rep.completed if t.cache_hit]
        assert hits
        for t in hits:
            assert t.latency == 0
            assert t.result.from_cache

    def test_cached_answer_equals_fresh(self, store):
        svc = make_service()
        streams = streams_for(store)
        rep = run_closed_loop(svc, "yeast", streams, options=OPTS)
        fresh = {}
        for t in rep.completed:
            if not t.cache_hit:
                from repro.service.canon import canonical_query_key

                fresh[canonical_query_key(t.query)] = t.result
        for t in rep.completed:
            if t.cache_hit:
                from repro.service.canon import canonical_query_key

                ref = fresh[canonical_query_key(t.query)]
                assert t.result.found == ref.found
                assert t.result.steps == ref.steps
                assert t.result.winner == ref.winner

    def test_algorithm_names_are_canonical(self, store):
        """``gql`` and ``GQL`` name one matcher, so one variant set: a
        ``gql`` resubmission of a ``GQL`` query hits the cache, and the
        winner carries the registry's name."""
        svc = make_service()
        [mix] = default_tenant_mixes(1, 1, sizes=(4,), repeat_fraction=0.0)
        [mq] = generate_tenant_stream([store], mix, seed=5)
        results = []
        for name in ("GQL", "gql"):
            options = QueryOptions(algorithms=(name,), rewritings=("Orig",))
            ticket = svc.submit("yeast", mq.query.graph, options=options)
            svc.run_until_idle()
            results.append(ticket.result)
        first, again = results
        assert not first.from_cache and again.from_cache
        assert again.winner_label == first.winner_label == "GQL-Orig"

    def test_a_submit_without_options_shares_one_default(
        self, store, monkeypatch
    ):
        """Submits that name no options validate no ``QueryOptions``:
        they share one default, whose cache signature is
        ``QueryOptions()``'s — each hits the entry a ``QueryOptions()``
        submit of the same query left."""
        svc = make_service()
        [mix] = default_tenant_mixes(1, 1, sizes=(4,), repeat_fraction=0.0)
        [mq] = generate_tenant_stream([store], mix, seed=5)
        first = svc.submit("yeast", mq.query.graph, options=QueryOptions())
        svc.run_until_idle()
        validated = []
        monkeypatch.setattr(
            QueryOptions, "__post_init__", lambda self: validated.append(self)
        )
        tickets = [svc.submit("yeast", mq.query.graph) for _ in range(100)]
        svc.run_until_idle()
        assert validated == []
        assert not first.result.from_cache
        assert all(t.result.from_cache for t in tickets)
        assert {t.result.winner for t in tickets} == {first.result.winner}

    def test_killed_results_not_cached(self, store):
        svc = Service(
            workers=4,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=8)
            ),
        )
        svc.load_dataset("yeast", scale="tiny")
        streams = streams_for(store, queries_per_tenant=3)
        rep = run_closed_loop(svc, "yeast", streams, options=OPTS)
        killed = [t for t in rep.completed if t.result.killed]
        assert killed  # an 8-step budget kills everything fresh
        assert rep.metrics["service.result_cache"]["hits"] == 0


class TestAdmissionIntegration:
    def test_rejection_surfaces(self, store):
        svc = Service(
            workers=4,
            admission=AdmissionController(
                default_policy=TenantPolicy(
                    max_queued=1, step_budget=BUDGET
                )
            ),
        )
        svc.load_dataset("yeast", scale="tiny")
        [mix] = default_tenant_mixes(1, 8, sizes=(6,), repeat_fraction=0.0)
        stream = generate_tenant_stream([store], mix, seed=3)
        # the open-loop flood overruns the 1-deep queue
        tickets = flood(svc, "yeast", stream)
        rejected = [
            t for t in tickets if t.state is TicketState.REJECTED
        ]
        assert rejected
        assert all("queue full" in t.reject_reason for t in rejected)

    def test_wide_variant_set_rejected(self, store):
        svc = make_service(workers=2)
        [mix] = default_tenant_mixes(1, 1, sizes=(4,), repeat_fraction=0.0)
        stream = generate_tenant_stream([store], mix, seed=5)
        t = svc.submit(
            "yeast", stream[0].query.graph, options=OPTS
        )  # 4 variants > 2 workers
        assert t.state is TicketState.REJECTED
        assert "worker pool" in t.reject_reason

    @pytest.mark.parametrize("options, path", [
        ({"algorithms": ("NOPE",)}, "options.algorithms[0]"),
        ({"rewritings": ("Orig", "XYZ")}, "options.rewritings[1]"),
        ({"rewritings": ()}, "options.rewritings"),
    ])
    def test_an_unraceable_variant_set_is_rejected(self, options, path):
        """A variant name no registry resolves (or no variant at all)
        is refused where the options are built, naming the field, so no
        ticket ever carries one; the empty query and the over-wide race
        are what submit still refuses."""
        with pytest.raises(SpecError) as err:
            QueryOptions(**options)
        assert err.value.path == path

    @pytest.mark.parametrize("dataset", ["yeast", "ppi"])
    def test_an_empty_query_is_rejected_at_submit(self, dataset):
        """No matcher has a vertex to start an empty query from: it is
        refused at submit on either kind, instead of raising inside the
        pump (NFV) or being answered not-found (FTV), and the next
        query is answered."""
        svc = Service(workers=4)
        svc.load_dataset(dataset, scale="tiny")
        t = svc.submit(dataset, LabeledGraph(0, []))
        assert t.state is TicketState.REJECTED
        assert t.reject_reason == "query: has no vertex"
        assert svc.idle
        answered = svc.submit(dataset, LabeledGraph(1, ["L0"]))
        svc.run_until_idle()
        assert answered.state is TicketState.DONE

    def test_fair_share_interleaves_tenants(self, store):
        """A backlogged heavy tenant cannot starve a light one."""
        svc = make_service(workers=4)
        streams = streams_for(store, queries_per_tenant=6, tenants=2)
        rep = run_closed_loop(svc, "yeast", streams, options=OPTS)
        finish_order = [
            t.tenant
            for t in sorted(rep.completed, key=lambda t: t.finish_time)
        ]
        # both tenants appear in the first half of completions
        half = finish_order[: len(finish_order) // 2]
        assert len(set(half)) == 2


class TestServiceStats:
    def test_stats_shape(self, store):
        svc = make_service()
        run_closed_loop(
            svc, "yeast", streams_for(store, queries_per_tenant=3),
            options=OPTS,
        )
        s = svc.stats()
        assert s["completed"] > 0
        assert s["clock_steps"] > 0
        assert s["work_steps"] > 0
        assert s["latency_steps"]["p50"] >= 0
        assert s["result_cache"]["lookups"] > 0
        assert s["prepare_cache"]["hits"] >= 0
        assert svc.memory()["total_bytes"] > 0

    def test_unknown_dataset_submit(self, store):
        svc = make_service()
        with pytest.raises(KeyError):
            svc.submit("human", store)


class TestFTVServing:
    def test_ftv_end_to_end(self):
        graphs = build_ftv_graphs("ppi", "tiny")
        svc = Service(
            workers=4,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=BUDGET)
            ),
        )
        svc.load_dataset("ppi", scale="tiny")
        mixes = default_tenant_mixes(
            2, 4, sizes=(4, 6), repeat_fraction=0.4
        )
        streams = {
            m.tenant: generate_tenant_stream(graphs, m, seed=9)
            for m in mixes
        }
        opts = QueryOptions(rewritings=("Orig", "DND"))
        rep = run_closed_loop(svc, "ppi", streams, options=opts)
        assert len(rep.completed) == 8
        # workload queries are grown from stored graphs: answers exist
        found = [t for t in rep.completed if t.result.found]
        assert found
        for t in found:
            assert t.result.matching_ids
        # determinism
        svc2 = Service(
            workers=4,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=BUDGET)
            ),
        )
        svc2.load_dataset("ppi", scale="tiny")
        rep2 = run_closed_loop(svc2, "ppi", streams, options=opts)
        assert rep.digest == rep2.digest

    @pytest.mark.parametrize("rewritings", [("Orig",), ("ILF", "DND")])
    def test_ftv_answer_matches_index(self, rewritings):
        """The service's decision answer agrees with the raw index, and
        a motif extracted from stored graph *g* matches *g*."""
        graphs = build_ftv_graphs("ppi", "tiny")
        svc = Service(workers=2)
        svc.load_dataset("ppi", scale="tiny")
        [mix] = default_tenant_mixes(1, 3, sizes=(4,), repeat_fraction=0.0)
        stream = generate_tenant_stream(graphs, mix, seed=11)
        opts = QueryOptions(rewritings=rewritings)
        index = svc.catalog.get("ppi").shard_entry(0).ftv_index
        for mq in stream:
            t = svc.submit("ppi", mq.query.graph, options=opts)
            svc.run_until_idle()
            ref = index.query(mq.query.graph)
            assert list(t.result.matching_ids) == ref.matching_ids
            assert mq.query.source_graph_id in t.result.matching_ids


class TestShardedServing:
    """End-to-end sharded serving (edge cases live in
    tests/test_service_sharding.py)."""

    def test_sharded_ftv_end_to_end_deterministic(self):
        graphs = build_ftv_graphs("ppi", "tiny")
        mixes = default_tenant_mixes(2, 4, sizes=(4, 6), repeat_fraction=0.4)
        streams = {
            m.tenant: generate_tenant_stream(graphs, m, seed=9)
            for m in mixes
        }
        opts = QueryOptions(rewritings=("Orig", "DND"))
        reports = []
        for _ in range(2):
            svc = Service(
                workers=4,
                shards=2,
                admission=AdmissionController(
                    default_policy=TenantPolicy(step_budget=BUDGET)
                ),
            )
            svc.load_dataset("ppi", scale="tiny")
            reports.append(run_closed_loop(svc, "ppi", streams, options=opts))
        a, b = reports
        assert a.digest == b.digest
        assert a.answers == b.answers
        assert len(a.completed) == 8
        found = [t for t in a.completed if t.result.found]
        assert found
        for t in found:
            assert t.result.matching_ids

    def test_sharded_service_unsharded_equivalence(self, store):
        """Answers on an NFV dataset are shard-layout-invariant."""
        streams = streams_for(store, queries_per_tenant=4)
        base = run_closed_loop(
            make_service(), "yeast", streams, options=OPTS
        )
        svc = Service(
            workers=4,
            shards=2,
            admission=AdmissionController(
                default_policy=TenantPolicy(step_budget=BUDGET)
            ),
        )
        svc.load_dataset("yeast", scale="tiny")
        sharded = run_closed_loop(svc, "yeast", streams, options=OPTS)
        assert base.answers == sharded.answers


def test_results_digest_order_independent(store):
    svc = make_service()
    rep = run_closed_loop(
        svc, "yeast", streams_for(store, queries_per_tenant=3),
        options=OPTS,
    )
    shuffled = list(reversed(rep.completed))
    assert results_digest(rep.completed) == results_digest(shuffled)


def test_invalid_budget_rejected_at_submit(store):
    svc = make_service()
    with pytest.raises(ValueError, match="budget_steps"):
        svc.submit("yeast", store, budget_steps=0)
