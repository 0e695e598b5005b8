"""The stats view: ``Service.stats()`` as a read of the metrics registry.

Every serving fact is published by its owner — the replica set
registers ``service.replicas``, the fan-out coordinator its counters,
the race planner the routing counters, the mutation applier
``service.mutations`` — and :class:`StatsView` adds the gauges over
the shared pieces (dispatcher, catalog, admission, caches, tracer) plus
the one state it owns, the window of recent completion latencies.
``stats()`` is then a pure registry read, so no value is ever computed
twice and the keys, order and flat counters behind each composite view
are what ``tests/test_obs.py`` pins.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .rebalance import shard_loads

__all__ = ["StatsView"]


def _prepare_cache_metrics() -> dict:
    """Process-global prepared-graph cache counters (import deferred:
    ``repro.caching`` must not load at service-import time)."""
    from ..caching import prepare_cache

    return prepare_cache.stats.as_metrics()


class StatsView:
    """The ``service.*`` gauges over shared state, and the latency window."""

    #: the stats() dict, key for key: every entry is the registry
    #: metric ``service.<key>``
    KEYS = (
        "clock_steps",
        "ticks",
        "work_steps",
        "completed",
        "active",
        "shards",
        "shard_cancelled",
        "per_shard_work",
        "per_pool_work",
        "replicas",
        "faults",
        "fanout_waste",
        "routing",
        "latency_steps",
        "admission",
        "result_cache",
        "prepare_cache",
        "memory",
    )

    def __init__(
        self, metrics, dispatcher, catalog, replicas, admission, cache,
        tracer, routing: bool,
    ) -> None:
        self.metrics = metrics
        self.routing = routing
        # sliding window: stats() reports the most recent completions,
        # so a long-lived service doesn't grow (or re-sort) its whole
        # history per stats call
        self.latencies: deque[int] = deque(maxlen=65_536)
        #: fixed-bound latency histogram (full snapshot only — stats()
        #: keeps reporting the windowed summary)
        self._latency_hist = metrics.histogram("service.latency_hist")
        g = metrics.gauge
        g("service.clock_steps", lambda: dispatcher.clock)
        metrics.register("service.ticks", dispatcher.ticks)
        metrics.register("service.work_steps", dispatcher.work_steps)
        g("service.active", lambda: dispatcher.active)
        g("service.shards", lambda: catalog.num_shards)
        # per-shard semantics survive replication: a shard's work is
        # the sum over every pool that ever served it
        g(
            "service.per_shard_work",
            lambda: shard_loads(replicas, dispatcher.pool_work),
        )
        g("service.per_pool_work", lambda: list(dispatcher.pool_work))
        g("service.routing", self._routing_report)
        g("service.latency_steps", self._latency_report)
        g("service.admission", lambda: admission.stats())
        g("service.result_cache", lambda: cache.as_metrics())
        g("service.prepare_cache", _prepare_cache_metrics)
        g(
            "service.memory",
            lambda: {**catalog.memory_report(), **replicas.memory_fields()},
        )
        # registry-only views (not part of the stats() contract)
        g("routing.tables", lambda: {
            name: catalog.get(name).router.as_metrics()
            for name in catalog.datasets()
            if catalog.get(name).router is not None
        })
        g("trace.buffer", tracer.as_metrics)

    def observe_latency(self, steps: int) -> None:
        self.latencies.append(steps)
        self._latency_hist.observe(steps)

    def _routing_report(self) -> dict:
        value = self.metrics.value
        return {
            "enabled": self.routing,
            "routed": value("service.routed_queries"),
            "shards_pruned": value("service.shards_pruned"),
            "waves_skipped": value("service.waves_skipped"),
            "shard_cancelled": value("service.shard_cancelled"),
        }

    def _latency_report(self) -> Optional[dict]:
        from ..metrics import summarize_latencies

        if not self.latencies:
            return None
        return summarize_latencies(list(self.latencies)).as_dict()

    def stats(self) -> dict:
        """One JSON-ready snapshot: each key is the registry metric
        ``service.<key>``."""
        value = self.metrics.value
        return {key: value(f"service.{key}") for key in self.KEYS}
