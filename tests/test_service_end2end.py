"""End-to-end service tests: determinism, caching, fairness, FTV."""

import pytest

from repro.harness import build_ftv_graphs, build_nfv_graph
from repro.matching import Budget
from repro.service import (
    AdmissionController,
    QueryOptions,
    Service,
    TenantPolicy,
    TicketState,
    replay,
    results_digest,
    run_closed_loop,
)
from repro.workload import (
    default_tenant_mixes,
    generate_tenant_stream,
    generate_tenant_streams,
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

    def test_replay_deterministic(self, store):
        mixes = default_tenant_mixes(2, 5, sizes=(4, 6))
        stream = generate_tenant_streams([store], mixes, seed=7)
        digests = set()
        for _ in range(2):
            svc = make_service()
            rep = replay(svc, "yeast", stream, options=OPTS)
            digests.add(rep.digest)
        assert len(digests) == 1


class TestEquivalenceWithPsi:
    def test_service_result_matches_solo_race(self, store):
        """A served query's bill equals PsiNFV.race, concurrency or not."""
        svc = make_service()
        streams = streams_for(store, queries_per_tenant=6)
        rep = run_closed_loop(svc, "yeast", streams, options=OPTS)
        psi = svc.catalog.get("yeast").psi
        variants = OPTS.variants("nfv")
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
            )
            assert t.result.winner == ref.winner
            assert t.result.steps == ref.steps
            assert dict(t.result.per_variant_steps) == (
                ref.race.per_variant_steps
            )
            checked += 1
        assert checked >= 8


class TestResultCaching:
    def test_repeats_hit(self, store):
        svc = make_service()
        rep = run_closed_loop(
            svc, "yeast", streams_for(store), options=OPTS
        )
        cache = rep.as_json()["result_cache"]
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
        assert rep.as_json()["result_cache"]["hits"] == 0


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
        mixes = default_tenant_mixes(1, 8, sizes=(6,), repeat_fraction=0.0)
        stream = generate_tenant_streams([store], mixes, seed=3)
        # open-loop replay floods the 1-deep queue
        rep = replay(svc, "yeast", stream, options=OPTS)
        rejected = [
            t for t in rep.tickets if t.state is TicketState.REJECTED
        ]
        assert rejected
        assert all("queue full" in t.reject_reason for t in rejected)

    def test_wide_variant_set_rejected(self, store):
        svc = make_service(workers=2)
        stream = generate_tenant_streams(
            [store],
            default_tenant_mixes(1, 1, sizes=(4,), repeat_fraction=0.0),
            seed=5,
        )
        t = svc.submit(
            "yeast", stream[0].query.graph, options=OPTS
        )  # 4 variants > 2 workers
        assert t.state is TicketState.REJECTED
        assert "worker pool" in t.reject_reason

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
        assert s["memory"]["total_bytes"] > 0

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

    def test_ftv_answer_matches_index(self):
        """The service's decision answer agrees with the raw index."""
        graphs = build_ftv_graphs("ppi", "tiny")
        svc = Service(workers=2)
        svc.load_dataset("ppi", scale="tiny")
        mixes = default_tenant_mixes(1, 3, sizes=(4,), repeat_fraction=0.0)
        stream = generate_tenant_streams(graphs, mixes, seed=11)
        opts = QueryOptions(rewritings=("Orig",))
        index = svc.catalog.get("ppi").shard_entry(0).ftv_index
        for mq in stream:
            t = svc.submit("ppi", mq.query.graph, options=opts)
            svc.run_until_idle()
            ref = index.query(mq.query.graph)
            assert list(t.result.matching_ids) == ref.matching_ids


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
