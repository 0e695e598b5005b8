"""`repro.service` — a concurrent graph-query serving layer.

The paper's Ψ-framework answers one query at a time; the ROADMAP's
north star serves heavy traffic.  This package is the bridge: a
dataset catalog that keeps graphs and their indexes warm, admission
control with per-tenant fair share, a deterministic dispatcher that
interleaves many Ψ races over bounded simulated worker pools, a
canonical-form result cache in front of it all, and a sharded
catalog (``Service(shards=N)``, N >= 1 — the only catalog a service
owns) that partitions collections and fans queries out with answers
bit-for-bit identical for every N (see
:mod:`repro.service.sharding`).  Shards can carry warm replicas
(``Service(shards=N, replicas=R)``) with a deterministic fault
injector (:mod:`repro.service.faults`) proving that replica death,
pool wedges, and mid-flight task failures never change a
budget-completed answer.

Quickstart::

    from repro.service import Service, QueryOptions

    svc = Service(workers=4)
    svc.load_dataset("yeast", scale="tiny")
    ticket = svc.submit("yeast", query_graph, tenant="alice")
    svc.run_until_idle()
    print(ticket.result.winner_label, ticket.result.steps)

Everything runs on the virtual step clock: two identical submission
histories produce identical winners, step bills, and latencies.
"""

from .admission import (
    AdmissionController,
    TenantPolicy,
    Ticket,
    TicketState,
)
from .cache import CachedResult, ResultCache
from .canon import canonical_query_key
from .catalog import DatasetCatalog, DatasetEntry
from .dispatcher import Dispatcher, RaceTask
from .faults import (
    FaultEvent,
    FaultInjector,
    ReplicaState,
    chaos_plan,
)
from .loadgen import LoadReport, run_closed_loop
from .rebalance import Migration, Rebalancer
from .routing import RoutePlan, ShardRouter
from .service import (
    QueryOptions,
    Service,
    ServiceResult,
    answers_digest,
    decisions_digest,
    results_digest,
)
from .sharding import (
    ShardedCatalog,
    ShardedEntry,
    assign_shards,
    merge_shard_outcomes,
)

__all__ = [
    "AdmissionController",
    "CachedResult",
    "DatasetCatalog",
    "DatasetEntry",
    "Dispatcher",
    "FaultEvent",
    "FaultInjector",
    "LoadReport",
    "Migration",
    "QueryOptions",
    "RaceTask",
    "Rebalancer",
    "ReplicaState",
    "ResultCache",
    "RoutePlan",
    "Service",
    "ShardRouter",
    "ServiceResult",
    "ShardedCatalog",
    "ShardedEntry",
    "TenantPolicy",
    "Ticket",
    "TicketState",
    "answers_digest",
    "assign_shards",
    "canonical_query_key",
    "chaos_plan",
    "decisions_digest",
    "merge_shard_outcomes",
    "results_digest",
    "run_closed_loop",
]
