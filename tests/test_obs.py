"""Observability layer: registry primitives and the stats identity pin.

The load-bearing test here is :class:`TestStatsIdentity` — it pins the
``Service.stats()`` contract on the registry snapshot: the key set and
order, every value **equal to the registry metric** ``service.<key>``,
and every composite view (``faults``, ``routing``, ``replicas``,
``admission``) equal, field for field, to the flat counters it is
assembled from — across one-shard, sharded+routed, and chaos workloads.
That identity is what keeps every stats-derived digest byte-stable.
"""

import json

import pytest

from repro.caching import CacheStats, prepare_cache
from repro.harness import build_ftv_graphs
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service import (
    AdmissionController,
    QueryOptions,
    Rebalancer,
    Service,
    TenantPolicy,
    chaos_plan,
    run_closed_loop,
)
from repro.workload import default_tenant_mixes, generate_tenant_stream

BUDGET = 60_000
FTV_OPTS = QueryOptions(rewritings=("Orig", "DND"))


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

class TestCounter:
    def test_inc_and_read(self):
        c = Counter()
        assert c.read() == 0
        assert c.inc() == 1
        assert c.inc(4) == 5
        assert c.read() == 5

    def test_value_is_settable(self):
        c = Counter(9)
        c.value = 0
        assert c.read() == 0


class TestGauge:
    def test_read_through(self):
        box = {"v": 1}
        g = Gauge(lambda: box["v"])
        assert g.read() == 1
        box["v"] = 7
        assert g.read() == 7


class TestHistogram:
    def test_default_bounds_are_powers_of_two(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1
        assert DEFAULT_LATENCY_BUCKETS[-1] == 2 ** 21
        assert all(
            b == 1 << k for k, b in enumerate(DEFAULT_LATENCY_BUCKETS)
        )

    def test_bucketing_at_bounds(self):
        h = Histogram(bounds=(10, 100))
        h.observe(0)    # <= 10
        h.observe(10)   # exactly at a bound lands in that bucket
        h.observe(11)   # (10, 100]
        h.observe(100)
        h.observe(101)  # overflow
        assert h.read() == {
            "bounds": [10, 100],
            "counts": [2, 2, 1],
            "count": 5,
            "sum": 222,
        }

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram(bounds=(2, 1))

    def test_deterministic_read(self):
        a, b = Histogram(), Histogram()
        for v in (0, 1, 5, 64, 3_000_000):
            a.observe(v)
            b.observe(v)
        assert a.read() == b.read()
        assert json.dumps(a.read(), sort_keys=True) == json.dumps(
            b.read(), sort_keys=True
        )


class TestRegistry:
    def test_snapshot_sorted_and_read_on_demand(self):
        reg = MetricsRegistry()
        c = reg.counter("z.last")
        reg.gauge("a.first", lambda: c.read() * 2)
        c.inc(3)
        snap = reg.snapshot()
        assert list(snap) == ["a.first", "z.last"]
        assert snap == {"a.first": 6, "z.last": 3}

    def test_collision_checked(self):
        reg = MetricsRegistry()
        reg.counter("dup")
        with pytest.raises(ValueError):
            reg.counter("dup")
        # replace=True is the re-created-component escape hatch
        reg.counter("dup", value=5, replace=True)
        assert reg.value("dup") == 5

    def test_rejects_unreadable_metric(self):
        with pytest.raises(TypeError):
            MetricsRegistry().register("bad", object())

    def test_lookup_surface(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert "x" in reg
        assert "y" not in reg
        assert reg.get("x") is c
        assert reg.get("y") is None
        assert reg.names() == ["x"]


# ----------------------------------------------------------------------
# the stats identity pin
# ----------------------------------------------------------------------

#: the stats() contract: these keys, in this order
STATS_KEYS = [
    "clock_steps", "ticks", "work_steps", "completed", "active",
    "shards", "shard_cancelled", "per_shard_work", "per_pool_work",
    "replicas", "faults", "fanout_waste", "routing", "latency_steps",
    "admission", "result_cache", "prepare_cache", "memory",
]

#: (stats section, field) -> the flat registry counter behind it
FLAT_COUNTERS = {
    ("faults", "retries"): "service.retries",
    ("faults", "rerouted"): "service.rerouted",
    ("faults", "degraded"): "service.degraded",
    ("faults", "tasks_failed"): "service.tasks_failed",
    ("faults", "noop"): "service.faults_noop",
    ("routing", "routed"): "service.routed_queries",
    ("routing", "shards_pruned"): "service.shards_pruned",
    ("routing", "waves_skipped"): "service.waves_skipped",
    ("routing", "shard_cancelled"): "service.shard_cancelled",
    ("admission", "admitted"): "admission.admitted",
    ("admission", "rejected"): "admission.rejected",
    ("admission", "coalesced"): "admission.coalesced",
    ("admission", "queued"): "admission.queued",
    ("admission", "in_flight"): "admission.in_flight",
}


#: what ``test_one_shard_stats_are_the_unsharded_services``' run read
#: at commit d077afa (PR 22), whose ``Service(shards=1)`` held a plain
#: ``DatasetCatalog``
UNSHARDED_STATS = {
    "clock_steps": 512,
    "ticks": 8,
    "work_steps": 804,
    "completed": 17,
    "active": 0,
    "shards": 1,
    "shard_cancelled": 0,
    "per_shard_work": [804],
    "per_pool_work": [804],
    "replicas": {
        "counts": [1], "live": [1], "states": {},
        "killed": 0, "wedged": 0, "retired": 0,
    },
    "faults": {
        "injected": 0, "retries": 0, "rerouted": 0, "degraded": 0,
        "tasks_failed": 0, "noop": 0,
    },
    "fanout_waste": 0,
    "routing": {
        "enabled": False, "routed": 0, "shards_pruned": 0,
        "waves_skipped": 0, "shard_cancelled": 0,
    },
    "latency_steps": {
        "count": 17, "mean": 86.58823529411765,
        "p50": 64, "p95": 256, "p99": 256, "max": 256,
    },
    "admission": {
        "admitted": 14, "rejected": 1, "coalesced": 1,
        "queued": 0, "in_flight": 0,
        "charged_steps": {"tenant0": 180, "tenant1": 603, "public": 21},
    },
    "result_cache": {
        "hits": 2, "misses": 15, "evictions": 0, "lookups": 17,
        "hit_rate": 0.11764705882352941, "entries": 14,
        "capacity": 512, "uncacheable": 0,
    },
    "prepare_cache": {
        "hits": 54, "misses": 19, "evictions": 1, "lookups": 73,
        "hit_rate": 0.7397260273972602,
    },
}


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards=1, replicas=1, routing=False, **kw):
    svc = Service(
        workers=4,
        shards=shards,
        replicas=replicas,
        routing=routing,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        **kw,
    )
    svc.load_dataset("ppi", scale="tiny")
    return svc


def ftv_streams(graphs, tenants=2, per_tenant=8, seed=9):
    mixes = default_tenant_mixes(
        tenants, per_tenant, sizes=(4, 6), repeat_fraction=0.3
    )
    return {
        m.tenant: generate_tenant_stream(graphs, m, seed=seed)
        for m in mixes
    }


def assert_stats_identical(svc: Service) -> None:
    snap = svc.metrics.snapshot()
    got = svc.stats()
    assert list(got) == STATS_KEYS  # key set AND order
    want = {key: snap[f"service.{key}"] for key in STATS_KEYS}
    assert got == want
    # one object per counter: a composite view and the flat metric it
    # is assembled from can never disagree
    for (section, field), name in FLAT_COUNTERS.items():
        assert got[section][field] == snap[name], (section, field)
    assert got["ticks"] == snap["dispatcher.ticks"]
    assert got["ticks"] == svc.dispatcher.ticks.value
    assert got["work_steps"] == snap["dispatcher.work_steps"]
    assert got["per_pool_work"] == snap["dispatcher.pool_work"]
    assert got["completed"] == svc.completed_count.value
    assert got["replicas"]["killed"] == svc.replicas_killed.value
    assert got["replicas"]["wedged"] == svc.replicas_wedged.value
    assert got["replicas"]["retired"] == svc.replicas_retired.value
    # and the whole thing still renders to stable JSON
    assert json.dumps(got, sort_keys=True) == json.dumps(
        want, sort_keys=True
    )


class TestStatsIdentity:
    def test_fresh_service(self, ppi_graphs):
        assert_stats_identical(ftv_service())

    def test_one_shard_run(self, ppi_graphs):
        svc = ftv_service()
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        assert_stats_identical(svc)

    def test_sharded_routed_rebalanced_run(self, ppi_graphs):
        svc = ftv_service(shards=2, replicas=2, routing=True)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, rebalancer=Rebalancer(svc, min_window_steps=64),
            rebalance_every=4,
        )
        assert_stats_identical(svc)

    def test_chaos_run(self, ppi_graphs):
        svc = ftv_service(shards=2, replicas=2)
        faults = chaos_plan(1337, num_shards=2, replicas=2, queries=16)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, faults=faults,
        )
        assert svc.stats()["faults"]["injected"] > 0
        assert_stats_identical(svc)

    def test_one_shard_stats_are_the_unsharded_services(self, ppi_graphs):
        """``stats()`` (minus the approximate ``memory``) of a
        ``Service(shards=1)`` after a short mixed run, against the dict
        the unsharded service of PR 22 reported for the same run:
        serving one shard through the sharded catalog moved no key and
        no value — ``routing.enabled`` stays false, the replica view
        is one live replica, per-shard work is pool 0's."""
        prepare_cache.clear()  # process-global counters: start at zero
        prepare_cache.stats = CacheStats()
        svc = ftv_service(routing=True)
        streams = ftv_streams(ppi_graphs)
        run_closed_loop(
            svc, "ppi", streams, options=FTV_OPTS, concurrency=2
        )
        svc.add_graph("ppi", ppi_graphs[1])
        svc.remove_graph("ppi", 0)
        svc.pump()
        query = streams["tenant0"][0].query.graph
        svc.submit(
            "ppi", query,
            options=QueryOptions(
                rewritings=("Orig", "DND"), decision_only=True
            ),
        )
        svc.submit(  # five variants on four workers: rejected
            "ppi", query,
            options=QueryOptions(
                rewritings=("Orig", "DND", "ILF", "IND", "DNA")
            ),
        )
        svc.run_until_idle()
        stats = svc.stats()
        del stats["memory"]
        assert stats == UNSHARDED_STATS
        assert list(stats) == list(UNSHARDED_STATS)

    def test_registry_snapshot_superset(self, ppi_graphs):
        """The registry exposes everything stats() serves, plus the
        registry-only series (histogram, trace buffer, routing tables)."""
        svc = ftv_service(shards=2, replicas=2, routing=True)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs, per_tenant=4),
            options=FTV_OPTS, concurrency=2,
        )
        snap = svc.metrics.snapshot()
        stats = svc.stats()
        for key in stats:
            assert f"service.{key}" in snap
            assert snap[f"service.{key}"] == stats[key]
        assert list(snap) == sorted(snap)
        hist = snap["service.latency_hist"]
        assert hist["bounds"] == list(DEFAULT_LATENCY_BUCKETS)
        assert hist["count"] == stats["latency_steps"]["count"]
        assert snap["trace.buffer"]["capacity"] == 512
        assert "routing.tables" in snap
        assert "admission.admitted" in snap
        assert "dispatcher.ticks" in snap


class TestLoadReportSnapshot:
    def test_latency_section_comes_from_snapshot(self, ppi_graphs):
        """Satellite: as_json() no longer re-derives latencies by hand —
        but the snapshot value equals the hand derivation exactly."""
        from repro.metrics import summarize_latencies

        svc = ftv_service(shards=2, replicas=2)
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        payload = report.as_json()
        assert payload["latency_steps"] == report.service_stats[
            "latency_steps"
        ]
        by_hand = summarize_latencies(
            [t.latency or 0 for t in report.completed]
        ).as_dict()
        assert payload["latency_steps"] == by_hand
