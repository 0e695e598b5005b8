"""Sharded serving: one query, N catalog shards, identical answers.

Loads a generated multi-graph FTV collection (the synthetic dataset)
into a 2-shard :class:`repro.service.ShardedCatalog`, serves the same
multi-tenant workload through an unsharded and a sharded service, and
verifies live that the decision answers are bit-for-bit identical
while the sharded layout's tail latency improves.  Everything runs on
virtual time, so every number printed here is deterministic.

Run:  PYTHONPATH=src python examples/sharded_serving.py   (< 10 s)
"""

from repro.service import (
    QueryOptions,
    Service,
    ShardedCatalog,
    run_closed_loop,
)
from repro.workload import default_tenant_mixes, generate_tenant_stream


def build_service(shards: int) -> Service:
    svc = Service(workers=4, shards=shards)
    svc.load_dataset("synthetic", scale="tiny")
    return svc


def main() -> None:
    # ------------------------------------------------------------------
    # 1. a sharded catalog: the generated collection, partitioned
    # ------------------------------------------------------------------
    sharded = build_service(shards=2)
    entry = sharded.catalog.get("synthetic")
    print(f"collection: {len(entry.graphs)} generated graphs, "
          f"{entry.num_shards} shards (size-balanced assignment)")
    for shard, gids in enumerate(entry.assignment):
        edges = sum(entry.graphs[g].size for g in gids)
        print(f"  shard {shard}: graphs {list(gids)}  ({edges} edges)")

    # ------------------------------------------------------------------
    # 2. the same workload through both layouts
    # ------------------------------------------------------------------
    mixes = default_tenant_mixes(3, 10, sizes=(4, 6), repeat_fraction=0.3)
    streams = {
        m.tenant: generate_tenant_stream(entry.graphs, m, seed=17)
        for m in mixes
    }
    options = QueryOptions()
    single_report = run_closed_loop(
        build_service(shards=1), "synthetic", streams, options=options
    )
    sharded_report = run_closed_loop(
        sharded, "synthetic", streams, options=options
    )

    # ------------------------------------------------------------------
    # 3. answers are layout-invariant; latency is not
    # ------------------------------------------------------------------
    assert single_report.answers == sharded_report.answers, "answers diverged!"
    print(f"\nanswers digest (both layouts): {single_report.answers}")
    for name, report in (("single", single_report),
                         ("sharded", sharded_report)):
        lat = report.as_json()["latency_steps"]
        print(f"  {name:8} p50={lat['p50']:5d}  p95={lat['p95']:5d}  "
              f"max={lat['max']:5d} steps")

    # one concrete query, side by side
    fresh = [
        t for t in sharded_report.completed
        if t.result.found and not t.cache_hit and not t.coalesced
    ]
    ticket = fresh[0]
    print(f"\nexample: {ticket.tenant} {ticket.query.name} fanned out to "
          f"{ticket.fanout} shard race(s); matching stored graphs "
          f"{list(ticket.result.matching_ids)} (global ids)")

    # ------------------------------------------------------------------
    # 4. per-shard memory accounting
    # ------------------------------------------------------------------
    report = sharded.catalog.memory_report()
    print(f"\nmemory: {report['total_bytes'] / 1e6:.1f} MB total across "
          f"{len(report['shards'])} shards")
    for shard, row in enumerate(report["shards"]):
        print(f"  shard {shard}: {row['total_bytes'] / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
