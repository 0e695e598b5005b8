"""Observability layer: registry primitives and the stats identity pin.

The load-bearing test here is :class:`TestStatsIdentity` — it pins the
``Service.stats()`` contract on the registry snapshot: the key set and
order, every value **equal to the registry metric** ``service.<key>``,
and every serving fact published once — each counter a component keeps
reads in exactly one registry leaf — across one-shard,
sharded+routed+rebalanced, chaos, store-booted and mutation workloads.
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
from repro.store import StoreWriter
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


# ----------------------------------------------------------------------
# the stats identity pin
# ----------------------------------------------------------------------

#: the stats() contract: these keys, in this order
STATS_KEYS = [
    "clock_steps", "ticks", "work_steps", "completed", "active",
    "shards", "per_shard_work", "per_pool_work",
    "replicas", "faults", "fanout_waste", "routing", "latency_steps",
    "admission", "result_cache", "prepare_cache",
]


#: what ``test_one_shard_stats_are_the_unsharded_services``' run read
#: at commit d077afa, whose ``Service(shards=1)`` held a plain
#: ``DatasetCatalog``; the clock, ticks, work, latencies, tenant charges
#: and prepare-cache lookups are re-read since FTV races are staged
#: (a race the head settles never runs or rewrites for its second
#: sweep), the prepare cache again since canonical keys stopped
#: counting in it (17 of its 45 lookups, 1 hit and 16 misses, were
#: canon keys); every other key and value is still d077afa's
UNSHARDED_STATS = {
    "clock_steps": 384,
    "ticks": 6,
    "work_steps": 368,
    "completed": 17,
    "active": 0,
    "shards": 1,
    "per_shard_work": [368],
    "per_pool_work": [368],
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
        "count": 17, "mean": 60.23529411764706,
        "p50": 64, "p95": 128, "p99": 128, "max": 128,
    },
    "admission": {
        "admitted": 14, "rejected": 1, "coalesced": 1,
        "queued": 0, "in_flight": 0,
        "charged_steps": {"tenant0": 80, "tenant1": 277, "public": 11},
    },
    "result_cache": {
        "hits": 2, "misses": 15, "evictions": 0, "lookups": 17,
        "hit_rate": 0.11764705882352941, "entries": 14,
        "capacity": 512, "uncacheable": 0,
    },
    "prepare_cache": {
        "hits": 25, "misses": 3, "evictions": 1, "lookups": 28,
        "hit_rate": 0.8928571428571429,
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


#: no test run reaches this: each fact below is set to its own multiple
#: of it, so a registry leaf reading that multiple can only be that fact
MARK = 10 ** 12

#: pool ``p``'s work bill is marked ``POOL_MARK << p``: a shard's bill,
#: the sum over its pools, then has two or more bits set, so it equals
#: no pool's marker and — above every ``MARK`` multiple handed out —
#: no counter's
POOL_MARK = MARK << 10


class _Sized:
    """Stands in for a container whose length a gauge reports."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        return self.n


def _leaves(value, path=()):
    """(path, scalar) for every scalar inside a snapshot value."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaves(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _leaves(sub, path + (i,))
    else:
        yield path, value


def assert_each_fact_published_once(svc, monkeypatch, *owners) -> None:
    """Every counter a serving component keeps (``owners`` adds more
    components, e.g. a rebalancer) — and the dispatcher's clock and race
    count, the admission queue depths, the mutation backlog, the journal
    lag and the store reader's counters — is set to its own multiple of
    :data:`MARK`; each must then read in exactly one registry leaf.  A
    stats section or a value registered under a second name reads twice;
    a counter nothing publishes reads nowhere.

    Where every shard has two or more pools, each pool's work bill is
    marked too (:data:`POOL_MARK`), and so is each shard's, the sum over
    its pools: ``per_pool_work`` and ``per_shard_work`` are then two
    facts, each read once.  With one pool per shard the two lists are
    the same numbers, and the pool bills are left unmarked."""
    marks: dict = {}

    def mark(label: str) -> int:
        marks[label] = MARK * (len(marks) + 1)
        return marks[label]

    seen: set = set()
    for owner in (
        svc, svc.dispatcher, svc.admission, svc.fanout, svc.planner,
        svc.replica_set, svc.mutations, *owners,
    ):
        for attr, counter in vars(owner).items():
            if isinstance(counter, Counter) and id(counter) not in seen:
                seen.add(id(counter))
                label = f"{type(owner).__name__}.{attr}"
                monkeypatch.setattr(counter, "value", mark(label))
    dispatcher, admission = svc.dispatcher, svc.admission
    monkeypatch.setattr(dispatcher, "clock", mark("Dispatcher.clock"))
    monkeypatch.setattr(
        dispatcher, "_active", _Sized(mark("Dispatcher.active"))
    )
    monkeypatch.setattr(
        admission, "_queues",
        {"": _Sized(mark("AdmissionController.queued"))},
    )
    monkeypatch.setattr(
        admission, "_in_flight", {"": mark("AdmissionController.in_flight")}
    )
    mutations = svc.mutations
    monkeypatch.setattr(
        mutations, "pending", _Sized(mark("MutationApplier.pending"))
    )
    if mutations.journal is not None:
        lag = mark("MutationApplier.lag")
        monkeypatch.setattr(
            mutations, "applied_seq", mutations.journal.tail_seq() - lag
        )
    store = svc.catalog.store
    if store is not None:
        for attr in (
            "corrupt_detected", "quarantined", "blobs_verified",
            "bytes_read", "restores", "rebuilds", "misses",
        ):
            monkeypatch.setattr(store, attr, mark(f"StoreReader.{attr}"))
    replicas = svc.replica_set
    pools = [replicas.shard_pools(s) for s in range(replicas.num_shards)]
    if all(len(p) > 1 for p in pools):
        work = [POOL_MARK << p for p in range(len(dispatcher.pool_work))]
        monkeypatch.setattr(dispatcher, "pool_work", work)
        for p, bill in enumerate(work):
            marks[f"Dispatcher.pool_work[{p}]"] = bill
        for s, shard_pools in enumerate(pools):
            marks[f"shard {s} work"] = sum(work[p] for p in shard_pools)
    leaves = list(_leaves(svc.metrics.snapshot()))
    for label, value in marks.items():
        where = [path for path, leaf in leaves if leaf == value]
        assert len(where) == 1, (label, where)


def assert_stats_identical(svc: Service, monkeypatch, *owners) -> None:
    snap = svc.metrics.snapshot()
    got = svc.stats()
    assert list(got) == STATS_KEYS  # key set AND order
    want = {key: snap[f"service.{key}"] for key in STATS_KEYS}
    assert got == want
    # a section reads its owner's counters, never a copy of them
    assert got["ticks"] == svc.dispatcher.ticks.value
    assert got["completed"] == svc.completed_count.value
    assert got["faults"]["retries"] == svc.fanout.retries.value
    assert got["routing"]["shards_pruned"] == (
        svc.planner.shards_pruned.value
    )
    assert got["admission"]["admitted"] == svc.admission.admitted.value
    assert got["replicas"]["killed"] == svc.replica_set.killed.value
    assert got["replicas"]["wedged"] == svc.replica_set.wedged.value
    assert got["replicas"]["retired"] == svc.replica_set.retired.value
    # and the whole thing still renders to stable JSON
    assert json.dumps(got, sort_keys=True) == json.dumps(
        want, sort_keys=True
    )
    assert_each_fact_published_once(svc, monkeypatch, *owners)


class TestStatsIdentity:
    def test_fresh_service(self, ppi_graphs, monkeypatch):
        assert_stats_identical(ftv_service(), monkeypatch)

    def test_one_shard_run(self, ppi_graphs, monkeypatch):
        svc = ftv_service()
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        assert_stats_identical(svc, monkeypatch)

    def test_sharded_routed_rebalanced_run(self, ppi_graphs, monkeypatch):
        svc = ftv_service(shards=2, replicas=2, routing=True)
        rebalancer = Rebalancer(svc, min_window_steps=64)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, rebalancer=rebalancer, rebalance_every=4,
        )
        assert svc.stats()["routing"]["routed"] > 0
        assert_stats_identical(svc, monkeypatch, rebalancer)

    def test_chaos_run(self, ppi_graphs, monkeypatch):
        svc = ftv_service(shards=2, replicas=2)
        faults = chaos_plan(1337, num_shards=2, replicas=2, queries=16)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2, faults=faults,
        )
        assert svc.stats()["faults"]["injected"] > 0
        assert_stats_identical(svc, monkeypatch)

    def test_store_booted_run(self, ppi_graphs, tmp_path, monkeypatch):
        root = str(tmp_path / "store")
        StoreWriter(root).write_catalog(ftv_service(shards=2).catalog)
        svc = ftv_service(shards=2, store=root)
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        assert svc.store_metrics()["restores"] > 0
        assert_stats_identical(svc, monkeypatch)

    def test_mutation_run(self, ppi_graphs, tmp_path, monkeypatch):
        svc = ftv_service(shards=2, journal=str(tmp_path / "journal"))
        run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        svc.add_graph("ppi", ppi_graphs[1])
        svc.remove_graph("ppi", 0)
        svc.run_until_idle()
        assert svc.mutations.applied.value == 2
        assert_stats_identical(svc, monkeypatch)

    def test_one_shard_stats_are_the_unsharded_services(self, ppi_graphs):
        """``stats()`` of a
        ``Service(shards=1)`` after a short mixed run, against the dict
        the unsharded service reported for the same run:
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
                rewritings=("Orig", "DND", "ILF", "IND", "ILF+DND")
            ),
        )
        svc.run_until_idle()
        stats = svc.stats()
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


class TestPrepareCacheCounts:
    def test_submits_count_only_index_lookups(self, monkeypatch):
        """``prepare_cache`` counts matcher-index reuse, not canonical
        keys: N distinct NFV queries move its lookups by exactly the
        ``Matcher.prepare`` calls their races made."""
        from repro.matching.engine import Matcher
        from repro.workload import generate_workload

        svc = Service(workers=4)
        svc.load_dataset("yeast", scale="tiny")
        stored = svc.catalog.get("yeast").graphs
        queries = [q.graph for q in generate_workload(stored, 6, 5, seed=4)]
        prepares = []
        prepare = Matcher.prepare

        def counted(matcher, graph, cache=True):
            prepares.append(cache)
            return prepare(matcher, graph, cache)

        monkeypatch.setattr(Matcher, "prepare", counted)
        before = prepare_cache.stats.lookups
        for query in queries:
            svc.submit("yeast", query)
        svc.run_until_idle()
        assert svc.stats()["result_cache"]["misses"] == len(queries)
        assert prepares and all(prepares)
        assert prepare_cache.stats.lookups - before == len(prepares)


class TestLoadReportSnapshot:
    def test_latency_section_comes_from_snapshot(self, ppi_graphs):
        """The report reads latencies from the registry snapshot, and
        that value equals the derivation from the tickets exactly."""
        from repro.metrics import summarize_latencies

        svc = ftv_service(shards=2, replicas=2)
        report = run_closed_loop(
            svc, "ppi", ftv_streams(ppi_graphs), options=FTV_OPTS,
            concurrency=2,
        )
        assert report.metrics == svc.metrics.snapshot()
        by_hand = summarize_latencies(
            [t.latency or 0 for t in report.completed]
        ).as_dict()
        assert report.metrics["service.latency_steps"] == by_hand
