"""Names, units and directions of every metric the ledger reports.

``BENCHMARK.json`` lists the ``CONTRACT_*`` subsets — the metrics every
workload measures — under exactly these names (a test holds the two
together); the README's glossary and interaction table are written
from the ``moves`` column, which was fixed before any optimisation was
attempted.
"""

from __future__ import annotations

__all__ = [
    "BOUND", "CONTRACT_BOUNDS", "WORKLOADS", "CONTRACT_WORKLOADS",
    "END_TO_END", "CONTRACT_END_TO_END", "PER_LAYER", "NOT_APPLICABLE",
    "CONTRACT_LAYERS",
]

#: share of the earlier median by which an end-to-end metric may get
#: worse before ``compare`` calls it regressed, between two ledgers of
#: one seed taken round by round on one host.  One bound for all: a
#: metric that cannot hold it gets a longer run or moves to the layer
#: table (``query_ms_p99`` did); the bound is not widened.
BOUND = 0.10

#: the bounds ``BENCHMARK.json`` carries, which the PR driver applies
#: across ten seeds and between two sets of runs taken minutes apart on
#: a shared host.  That host runs identical work 30-45 % slower for a
#: minute or two at a time; a run that lies wholly inside such a spell
#: reads slow whatever the estimator, and the timing bounds are as wide
#: as the contract allows so that one or two such runs in ten do not
#: refuse unchanged code.  Memory does not feel the host.
CONTRACT_BOUNDS = {
    "setup_s": 0.25, "queries_per_s": 0.25, "peak_rss_mb": 0.10,
}

WORKLOADS = (
    "ftv-sharded", "nfv-race", "door-hot", "update-stream", "cold-boot",
)

#: the workloads ``BENCHMARK.json`` lists, which the PR driver runs 22
#: times each inside one fixed time limit: four, so that a run can last
#: half a minute.  The host's slow spells last up to a minute and a
#: half; ten runs of 20 s lost three whole runs to one spell (and with
#: them the quartile the driver's spread is taken from), ten runs of
#: 30 s lose two at most.  ``door-hot`` is the one left to the ledger:
#: no optimisation the ROADMAP names goes through the front door, and
#: its two threads on one CPU make it the one the host disturbs most.
CONTRACT_WORKLOADS = tuple(w for w in WORKLOADS if w != "door-hot")

#: (name, unit, better, workloads it is measured on, meaning); every
#: timing is taken once per lap and reported as ``run.steady`` over the
#: run's laps after the warm-up one
END_TO_END = (
    ("setup_s", "s", "lower", WORKLOADS,
     "Service(...) construction + load_dataset (+ store and journal "
     "attach, front-door bind) until ready; one fresh build of the "
     "workload's own configuration per lap (cold-boot: the fresh build "
     "of each cycle)"),
    ("queries_per_s", "1/s", "higher", WORKLOADS,
     "a lap's completed-and-correct queries / its window (on "
     "cold-boot: the probes of both booted services / the time they "
     "took)"),
    ("query_ms_p50", "ms", "lower", WORKLOADS,
     "a lap's median per-query wall latency in the benchmark's closed "
     "loop"),
    ("mutations_per_s", "1/s", "higher", ("update-stream",),
     "a lap's acknowledged mutations / its window"),
    ("mutation_ack_ms_p50", "ms", "lower", ("update-stream",),
     "submit -> applied: quiesce drain + journal append/fsync + "
     "catalog apply; median of a lap's mutations"),
    ("fresh_warm_s", "s", "lower", ("cold-boot",),
     "start of a fresh build -> first answer returned"),
    ("store_publish_s", "s", "lower", ("cold-boot",),
     "StoreWriter.write_catalog of the warm catalog"),
    ("store_boot_s", "s", "lower", ("cold-boot",),
     "start of a build from the store -> first answer returned"),
    ("peak_rss_mb", "MB", "lower", WORKLOADS,
     "ru_maxrss of the workload's interpreter at exit"),
)

#: the end-to-end metrics ``BENCHMARK.json`` lists (with
#: ``CONTRACT_BOUNDS``) and ``run.py --trace 0`` reports on its last
#: line.  The driver wants every listed metric from every workload and
#: holds each to its bound *across seeds*.  ``query_ms_p50`` agrees
#: between two sets of one seed (so the ledger and ``compare`` keep it
#: end to end) but not across seeds — which tenants' queries share the
#: pool moves it 5-10 % — so for the driver it sits with
#: ``query_ms_p99`` among the layer metrics.
CONTRACT_END_TO_END = tuple(
    row for row in END_TO_END
    if row[3] == WORKLOADS and row[0] != "query_ms_p50"
)

#: (name, unit, better, the end-to-end metric + workload it should move)
PER_LAYER = (
    ("query_ms_p99", "ms", "lower",
     "99th percentile of the untraced laps' pooled latency samples; "
     "moves with arrival order by 8-47 %, so it carries no bound"),
    ("datasets.build_s", "s", "lower",
     "setup_s, fresh_warm_s (all)"),
    ("graphs.kernel_build_s", "s", "lower",
     "fresh_warm_s, setup_s (all); store_boot_s only if restore "
     "re-freezes"),
    ("graphs.kernel_vertices", "count", "lower",
     "size of the kernel work above"),
    ("indexing.census_s", "s", "lower",
     "fresh_warm_s, setup_s (FTV workloads); mutation_ack_ms_p50 on "
     "update-stream; not store_boot_s; nothing on nfv-race"),
    ("indexing.census_paths", "count", "lower",
     "size of the census work above (exact)"),
    ("indexing.build_s", "s", "lower",
     "fresh_warm_s, setup_s (FTV workloads)"),
    ("indexing.seal_s", "s", "lower",
     "fresh_warm_s, setup_s, store_boot_s (FTV workloads)"),
    ("indexing.sketch_build_s", "s", "lower",
     "fresh_warm_s, setup_s, store_boot_s (sharded FTV workloads)"),
    ("indexing.filter_us_per_query", "us", "lower",
     "queries_per_s, query_ms_p50 on ftv-sharded; nothing on nfv-race"),
    ("indexing.filter_candidates_per_query", "count", "lower",
     "verify work per query on ftv-sharded"),
    ("indexing.filter_precision", "ratio", "higher",
     "answers / candidates: verify work that was useful"),
    ("matching.vf2_steps_per_s", "1/s", "higher",
     "queries_per_s, query_ms_p99 on ftv-sharded; a little on "
     "door-hot; nothing on nfv-race (replayed there, never raced)"),
    ("matching.gql_steps_per_s", "1/s", "higher",
     "queries_per_s on nfv-race; nothing on FTV workloads (replayed "
     "there, never raced)"),
    ("matching.spa_steps_per_s", "1/s", "higher",
     "queries_per_s on nfv-race; nothing on FTV workloads (replayed "
     "there, never raced)"),
    ("matching.verify_s", "s", "lower",
     "the sample's whole verify (FTV) or solo-match (NFV) wall"),
    ("rewriting.rewrite_us_per_query", "us", "lower",
     "query_ms_p50 on nfv-race"),
    ("psi.race_steps_per_s", "1/s", "higher",
     "queries_per_s on nfv-race first, ftv-sharded second"),
    ("psi.race_overhead_ratio", "ratio", "lower",
     "wall of interleaved_race / wall of its winner run solo (the "
     "paper's overhead metric)"),
    ("psi.race_waste_ratio", "ratio", "lower",
     "losers' charged steps / all steps (exact)"),
    ("service.submit_s", "s", "lower",
     "queries_per_s everywhere; largest share on door-hot"),
    ("service.pump_s", "s", "lower", "queries_per_s everywhere"),
    ("service.pump_calls", "count", "lower", "scheduling ticks driven"),
    ("service.work_steps", "count", "lower",
     "matcher steps the window charged (exact)"),
    ("service.steps_per_s", "1/s", "higher",
     "work_steps / pump_s; the gap to psi.race_steps_per_s is the "
     "serving layer's scheduling overhead"),
    ("service.canon.key_us", "us", "lower", "query_ms_p50 on door-hot"),
    ("service.cache.hit_ratio", "ratio", "higher",
     "query_ms_p50 on door-hot; 0 on nfv-race by construction"),
    ("service.cache.lookup_us", "us", "lower",
     "query_ms_p50 on door-hot"),
    ("service.admission.rejected", "count", "lower",
     "failed operations"),
    ("caching.prepare_hit_ratio", "ratio", "higher",
     "query_ms_p50 where matcher indexes are reused"),
    ("service.sharding.load_s", "s", "lower",
     "setup_s, fresh_warm_s (sharded workloads)"),
    ("service.sharding.merge_us", "us", "lower",
     "query_ms_p99 on ftv-sharded"),
    ("service.sharding.fanout_waste_ratio", "ratio", "lower",
     "fan-out waste / work steps (exact); query_ms_p99 on ftv-sharded"),
    ("service.routing.pruned_ratio", "ratio", "higher",
     "shard races the router never built; queries_per_s on "
     "ftv-sharded"),
    ("service.dispatcher.pool_skew", "ratio", "lower",
     "max / min pool work; query_ms_p99 on ftv-sharded (the slowest "
     "shard sets the merged time)"),
    ("service.catalog.load_s", "s", "lower",
     "setup_s, fresh_warm_s"),
    ("service.catalog.memory_accounting_s", "s", "lower",
     "setup_s, fresh_warm_s, store_boot_s and mutation_ack_ms_p50; no "
     "queries_per_s anywhere"),
    ("service.catalog.add_graph_s", "s", "lower",
     "mutation_ack_ms_p50, queries_per_s on update-stream"),
    ("service.catalog.remove_graph_s", "s", "lower",
     "mutation_ack_ms_p50, queries_per_s on update-stream"),
    ("store.publish_s", "s", "lower", "store_publish_s"),
    ("store.bytes_written", "B", "lower", "store_publish_s"),
    ("store.boot_s", "s", "lower", "store_boot_s"),
    ("store.bytes_read", "B", "lower", "store_boot_s"),
    ("store.codec.encode_s", "s", "lower", "store_publish_s"),
    ("store.codec.decode_s", "s", "lower", "store_boot_s"),
    ("store.verify_all_s", "s", "lower", "store_boot_s"),
    ("store.checkpoint_s", "s", "lower",
     "queries_per_s on update-stream (one checkpoint per lap)"),
    ("store.journal.append_us_p50", "us", "lower",
     "mutation_ack_ms_p50; the sandbox's fsync, not a device's"),
    ("store.journal.bytes_per_record", "B", "lower",
     "mutation_ack_ms_p50"),
    ("store.journal.replay_s", "s", "lower",
     "restart time after a crash on update-stream"),
    ("store.journal.recover_s", "s", "lower",
     "restart time after a crash on update-stream"),
    ("obs.server.query_overhead_ms", "ms", "lower",
     "query_ms_p50, queries_per_s on door-hot only"),
    ("obs.server.stats_ms_p50", "ms", "lower",
     "GET /stats; nothing end to end"),
    ("obs.trace.export_s", "s", "lower", "nothing end to end"),
    ("bench.generate_s", "s", "lower",
     "the harness's own cost: making the inputs"),
    ("bench.import_s", "s", "lower",
     "the harness's own cost: importing the program"),
    ("bench.trace_overhead_ratio", "ratio", "lower",
     "traced lap's window / the untraced laps' steady window, same "
     "process"),
)

#: per-layer metrics with no meaning on a workload: the layer does not
#: run there, and the ledger prints ``n/a``.
_FTV_ONLY = (
    "indexing.census_s", "indexing.census_paths", "indexing.build_s",
    "indexing.seal_s", "indexing.sketch_build_s",
    "indexing.filter_us_per_query",
    "indexing.filter_candidates_per_query", "indexing.filter_precision",
    "service.sharding.load_s", "service.sharding.merge_us",
    "service.sharding.fanout_waste_ratio", "service.routing.pruned_ratio",
    "service.dispatcher.pool_skew",
    "service.catalog.add_graph_s", "service.catalog.remove_graph_s",
)
_MUTATING_ONLY = (
    "store.checkpoint_s", "store.journal.append_us_p50",
    "store.journal.bytes_per_record", "store.journal.replay_s",
    "store.journal.recover_s",
)
_DOOR_ONLY = ("obs.server.query_overhead_ms", "obs.server.stats_ms_p50")

NOT_APPLICABLE = {
    "ftv-sharded": _MUTATING_ONLY + _DOOR_ONLY,
    "nfv-race": _FTV_ONLY + _MUTATING_ONLY + _DOOR_ONLY,
    "door-hot": _MUTATING_ONLY,
    "update-stream": _DOOR_ONLY,
    "cold-boot": _MUTATING_ONLY + _DOOR_ONLY,
}

#: the layer metrics every workload measures, after the end-to-end
#: median the driver cannot bound: ``BENCHMARK.json`` lists these and
#: ``run.py --trace 1`` reports them on its last line.  The rest appear,
#: with ``n/a`` where due, in the ``# detail`` line and in the ledger —
#: a contract line may carry only numbers, and a constant 0 s would
#: read as a clock that never ran.
CONTRACT_LAYERS = tuple(
    row[:3] + (row[4],) for row in END_TO_END if row[0] == "query_ms_p50"
) + tuple(
    row for row in PER_LAYER
    if not any(row[0] in skip for skip in NOT_APPLICABLE.values())
)
