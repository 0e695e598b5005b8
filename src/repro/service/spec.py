"""One way to build a service: the typed, validated :class:`ServiceSpec`.

A :class:`ServiceSpec` says *which* service an experiment means — the
dataset and scale, the workload (tenant mix, streams, decision/full
mode, budgets), the engine (pool width, variant set, cache behaviour),
the topology (shards, replicas, assignment, routing, rebalance
cadence), the fault plan and the persistence mode — and holds the only
code in the tree that turns those values into live objects: the warmed
catalog of the configured layout, the warmed
:class:`~repro.service.service.Service` with its admission policy, the
per-tenant streams, and the closed-loop drive.  ``repro serve`` and
``repro warm`` map their flags onto one
(``src/repro/cli.py:_service_spec``); a scenario YAML *is* one plus
its ``mutations``/``expect`` sections
(:class:`repro.scenarios.config.ScenarioConfig` extends it).  Every
layout-invariance claim compares services built here, so "the same
service, sharded" has exactly one meaning.

Validation is strict and happens at construction, whichever front end
constructs: every value is type- and range-checked, every algorithm
and rewriting name is resolved against its registry, and the
cross-section rules (chaos needs a replicated topology, the race must
fit the worker pool, ...) hold — each violation raises
:class:`SpecError` carrying the **full dotted path** of the offending
field (``engine.rewritings[1]: unknown rewriting 'NOPE'``).  A spec
that constructs is a spec that runs.  The machinery — :class:`SpecError`,
the :class:`Section` base and its field checkers — is
:mod:`repro.service.schema`'s, which a query's
:class:`~repro.service.planner.QueryOptions` and the scenario sections
build on too, so ``engine.algorithms`` and ``options.algorithms``
resolve names by the same rule.

Deployment paths (a store directory, a journal) are not part of the
value: they are arguments of :meth:`ServiceSpec.build_service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets import DATASETS, SCALES, dataset_kind
from ..workload import default_tenant_mixes, generate_tenant_stream
from .admission import AdmissionController, TenantPolicy
from .faults import StoreFaultInjector, chaos_plan
from .loadgen import LoadReport, run_closed_loop
from .planner import SERVED_ALGORITHMS, SERVED_REWRITINGS
from .rebalance import Rebalancer
from .schema import (
    Section,
    SpecError,
    check_algorithm,
    check_bool,
    check_fraction,
    check_int,
    check_rewriting,
    check_section,
    check_str,
    check_tuple,
)
from .service import QueryOptions, Service

__all__ = [
    "EngineSpec",
    "FaultSpec",
    "PersistenceSpec",
    "ServiceSpec",
    "TopologySpec",
    "WorkloadSpec",
]


@dataclass(frozen=True)
class WorkloadSpec(Section):
    """The multi-tenant stream: what arrives, how hard, how fast."""

    queries: int = 30
    tenants: int = 3
    sizes: tuple[int, ...] = (4, 8, 12)
    repeat_fraction: float = 0.35
    seed: int = 42
    concurrency: int = 1
    decision_only: bool = False
    budget: int = 200_000
    max_in_flight: int = 4

    _PATH = "workload"
    _CHECKS = {
        "queries": check_int(1),
        "tenants": check_int(1),
        "sizes": check_tuple(check_int(1), nonempty=True),
        "repeat_fraction": check_fraction,
        "seed": check_int(0),
        "concurrency": check_int(1),
        "decision_only": check_bool,
        "budget": check_int(1),
        "max_in_flight": check_int(1),
    }


@dataclass(frozen=True)
class EngineSpec(Section):
    """The racing engine: pool width, variant set, cache behaviour."""

    workers: int = 4
    algorithms: tuple[str, ...] = SERVED_ALGORITHMS
    rewritings: tuple[str, ...] = SERVED_REWRITINGS
    coalesce: bool = True

    _PATH = "engine"
    _CHECKS = {
        "workers": check_int(1),
        "algorithms": check_tuple(check_algorithm, nonempty=True),
        "rewritings": check_tuple(check_rewriting, nonempty=True),
        "coalesce": check_bool,
    }


@dataclass(frozen=True)
class TopologySpec(Section):
    """Shard/replica layout and the routing/rebalance switches."""

    shards: int = 1
    replicas: int = 1
    routing: bool = True
    assignment: str = "size_balanced"
    rebalance: bool = False
    rebalance_every: int = 0

    _PATH = "topology"
    _CHECKS = {
        "shards": check_int(1),
        "replicas": check_int(1),
        "routing": check_bool,
        "assignment": check_str(choices=("size_balanced", "hash")),
        "rebalance": check_bool,
        "rebalance_every": check_int(0),
    }


@dataclass(frozen=True)
class FaultSpec(Section):
    """Deterministic injections: runtime chaos + store corruption."""

    chaos: bool = False
    seed: int = 1337
    horizon: int = 0
    store_corruption: tuple[str, ...] = ()

    _PATH = "faults"
    _CHECKS = {
        "chaos": check_bool,
        "seed": check_int(0),
        "horizon": check_int(0),
        "store_corruption": check_tuple(
            check_str(choices=StoreFaultInjector.CORRUPTIONS, nonempty=True)
        ),
    }


@dataclass(frozen=True)
class PersistenceSpec(Section):
    """Artifact-store mode: boot from a persisted store, and mid-run
    regrow of killed replicas."""

    store: bool = False
    regrow: bool = False

    _PATH = "persistence"
    _CHECKS = {"store": check_bool, "regrow": check_bool}


# ----------------------------------------------------------------------
# the spec, and the only service construction code in the tree
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceSpec(Section):
    """One service, as a value (see module docstring)."""

    dataset: str
    scale: str = "tiny"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    persistence: PersistenceSpec = field(default_factory=PersistenceSpec)

    _CHECKS = {
        "dataset": check_str(choices=tuple(DATASETS)),
        "scale": check_str(choices=SCALES),
        "workload": check_section(WorkloadSpec),
        "engine": check_section(EngineSpec),
        "topology": check_section(TopologySpec),
        "faults": check_section(FaultSpec),
        "persistence": check_section(PersistenceSpec),
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        self._validate_cross()

    def _validate_cross(self) -> None:
        """Cross-section rules: a spec that constructs is one that runs."""
        t, e = self.topology, self.engine
        if self.faults.chaos and (t.shards < 2 or t.replicas < 2):
            raise SpecError(
                "faults.chaos",
                "needs topology.shards >= 2 and topology.replicas >= 2 "
                "(a kill must leave a surviving replica)",
            )
        if t.rebalance and t.shards < 2:
            raise SpecError(
                "topology.rebalance", "needs topology.shards >= 2"
            )
        if t.rebalance_every and not t.rebalance:
            raise SpecError(
                "topology.rebalance_every",
                "needs topology.rebalance: true",
            )
        if self.persistence.regrow and t.shards < 2:
            raise SpecError(
                "persistence.regrow", "needs topology.shards >= 2"
            )
        width = len(
            QueryOptions(e.algorithms, e.rewritings).variants(self.kind)
        )
        if width > e.workers:
            raise SpecError(
                "engine.workers",
                f"the race is {width} variants wide but the pool has "
                f"only {e.workers} workers",
            )

    # -- derived values ------------------------------------------------

    @property
    def tenants(self) -> int:
        """Tenants that get a stream: with more tenants than queries
        the surplus would have nothing to submit."""
        return min(self.workload.tenants, self.workload.queries)

    @property
    def kind(self) -> str:
        """The dataset's kind, ``"nfv"`` or ``"ftv"``."""
        return dataset_kind(self.dataset)

    def _load_algorithms(self) -> tuple[str, ...]:
        """The engine's matchers for an NFV graph; a collection prepares
        none (VF2 verifies), so it loads the served default."""
        if self.kind == "nfv":
            return self.engine.algorithms
        return SERVED_ALGORITHMS

    def _policy(self, weight: float = 1.0) -> TenantPolicy:
        return TenantPolicy(
            max_in_flight=self.workload.max_in_flight,
            step_budget=self.workload.budget,
            weight=weight,
        )

    # -- construction --------------------------------------------------

    def warm_catalog(self):
        """The warmed catalog of the configured layout — a freshly
        built service's, so ``Service`` stays the one place a topology
        becomes a catalog — which ``repro warm`` and a scenario's store
        step persist for a later ``build_service(store=...)`` to boot
        from."""
        return self.build_service().catalog

    def build_service(self, store=None, journal=None) -> Service:
        """The warmed service with its default admission policy.

        ``store`` boots warm state from a persisted artifact store
        (corrupt or absent artifacts fall back to an in-process
        rebuild); ``journal`` is the write-ahead journal mutations ack
        through.  Both are deployment paths, so arguments, not fields.
        """
        e, t = self.engine, self.topology
        service = Service(
            workers=e.workers,
            admission=AdmissionController(default_policy=self._policy()),
            coalesce=e.coalesce,
            shards=t.shards,
            replicas=t.replicas,
            routing=t.routing,
            assignment=t.assignment,
            store=store,
            journal=journal,
        )
        service.load_dataset(
            self.dataset, scale=self.scale, algorithms=self._load_algorithms()
        )
        return service

    def tenant_streams(self, service: Service) -> dict[str, list]:
        """Per-tenant seeded query streams, ``workload.queries`` in
        total, registering each tenant's fair-share policy with the
        service's admission controller.

        The streams grow from the graphs the catalog already built and
        froze, not from a second dataset build.
        """
        w = self.workload
        graphs = service.catalog.get(self.dataset).graphs
        tenants = self.tenants
        mixes = default_tenant_mixes(
            tenants,
            (w.queries + tenants - 1) // tenants,
            sizes=w.sizes,
            repeat_fraction=w.repeat_fraction,
        )
        for mix in mixes:
            service.admission.set_policy(
                mix.tenant, self._policy(weight=mix.weight)
            )
        streams = {
            m.tenant: generate_tenant_stream(graphs, m, seed=w.seed)
            for m in mixes
        }
        # trim to exactly the requested query count, preserving tenant order
        excess = sum(len(s) for s in streams.values()) - w.queries
        for tenant in sorted(streams, reverse=True):
            while excess > 0 and len(streams[tenant]) > 1:
                streams[tenant].pop()
                excess -= 1
        return streams

    def query_options(self) -> QueryOptions:
        return QueryOptions(
            algorithms=self.engine.algorithms,
            rewritings=self.engine.rewritings,
            decision_only=self.workload.decision_only,
        )

    def rebalancer(self, service: Service):
        """``(Rebalancer, completions between quiesce checks)`` for a
        ``topology.rebalance`` spec, else ``(None, 0)``."""
        t = self.topology
        if not t.rebalance:
            return None, 0
        every = t.rebalance_every or max(1, self.workload.queries // 4)
        return Rebalancer(service, min_window_steps=512), every

    def chaos_faults(self):
        """The seeded chaos-mode FaultInjector (``None`` = healthy)."""
        f = self.faults
        if not f.chaos:
            return None
        return chaos_plan(
            f.seed,
            num_shards=self.topology.shards,
            replicas=self.topology.replicas,
            queries=self.workload.queries,
            horizon=f.horizon,
        )

    def drive(
        self, service: Service, streams: dict, **update_stream
    ) -> LoadReport:
        """Run ``streams`` through ``service`` as the spec says: closed
        loop at ``workload.concurrency``, with the rebalance cadence,
        chaos plan and regrow switch.  ``update_stream`` is
        :func:`~repro.service.loadgen.run_closed_loop`'s mutation plan
        (``mutations``, ``mutate_every``, ...) when the caller weaves
        one through the queries; the spec itself has none."""
        rebalancer, every = self.rebalancer(service)
        return run_closed_loop(
            service,
            self.dataset,
            streams,
            options=self.query_options(),
            concurrency=self.workload.concurrency,
            rebalancer=rebalancer,
            rebalance_every=every,
            faults=self.chaos_faults(),
            regrow=self.persistence.regrow,
            **update_stream,
        )
