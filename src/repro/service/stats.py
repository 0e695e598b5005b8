"""The stats view: ``Service.stats()`` as a read of the metrics registry.

:class:`StatsView` is the one place the ``service.*`` names are
registered (``Service`` adds ``completed`` and ``faults``): the
serving pieces keep plain counters (:class:`~repro.obs.Counter`) and
their own bookkeeping, and never see the registry.  Each fact is registered
once — a counter a section reports has no second name beside it, so
no value sits in the registry twice (``tests/test_obs.py`` checks it)
— and the one state the view owns is the window of recent completion
latencies.  ``stats()`` only reads counters: the catalog's heap walk
is ``Service.memory()``, asked for on its own.
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
    )

    def __init__(
        self, metrics, dispatcher, catalog, replicas, admission, cache,
        tracer, planner, fanout, mutations,
    ) -> None:
        self.metrics = metrics
        self.planner = planner
        self.fanout = fanout
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
        g("service.replicas", replicas.report)
        metrics.register("service.fanout_waste", fanout.fanout_waste)
        g("service.routing", self._routing_report)
        g("service.latency_steps", self._latency_report)
        g("service.admission", admission.stats)
        g("service.result_cache", cache.as_metrics)
        g("service.prepare_cache", _prepare_cache_metrics)
        # registry-only views (not part of the stats() contract)
        metrics.register("service.races_head_only", planner.races_head_only)
        g("service.graph_bills", lambda: len(planner.graph_bills))
        g("service.mutations", mutations.report)
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
        planner, fanout = self.planner, self.fanout
        return {
            "enabled": planner.routing,
            "routed": planner.routed_queries.value,
            "shards_pruned": planner.shards_pruned.value,
            "waves_skipped": fanout.waves_skipped.value,
            "shard_cancelled": fanout.shard_cancelled.value,
        }

    def _latency_report(self) -> Optional[dict]:
        from ..metrics import summarize_latencies

        if not self.latencies:
            return None
        return summarize_latencies(list(self.latencies)).as_dict()

    @classmethod
    def sections(cls, read) -> dict:
        """The stats() dict, each key the metric ``service.<key>`` as
        ``read`` returns it: the live registry's ``value``, or a taken
        snapshot's ``__getitem__``."""
        return {key: read(f"service.{key}") for key in cls.KEYS}

    def stats(self) -> dict:
        """One JSON-ready snapshot: each key is the registry metric
        ``service.<key>``."""
        return self.sections(self.metrics.value)
