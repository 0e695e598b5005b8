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
that constructs is a spec that runs.

Deployment paths (a store directory, a journal) are not part of the
value: they are arguments of :meth:`ServiceSpec.build_service`.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields

from ..datasets import DATASETS, SCALES, dataset_kind
from ..matching.registry import MATCHER_FACTORIES
from ..rewriting import REWRITING_FACTORIES
from ..workload import default_tenant_mixes, generate_tenant_stream
from .admission import AdmissionController, TenantPolicy
from .faults import StoreFaultInjector, chaos_plan
from .loadgen import LoadReport, run_closed_loop
from .planner import SERVED_ALGORITHMS, SERVED_REWRITINGS
from .rebalance import Rebalancer
from .service import QueryOptions, Service

__all__ = [
    "EngineSpec",
    "FaultSpec",
    "PersistenceSpec",
    "Section",
    "ServiceSpec",
    "SpecError",
    "TopologySpec",
    "WorkloadSpec",
]


class SpecError(ValueError):
    """A schema violation, carrying the full dotted key path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


# ----------------------------------------------------------------------
# field checkers: (value, dotted path) -> normalised value, or SpecError
# ----------------------------------------------------------------------

def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def check_int(minimum=None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise SpecError(path, f"must be >= {minimum}, got {value}")
        return value

    return check


def check_optional(check):
    """``None`` (= "not set") or whatever ``check`` accepts."""
    return lambda value, path: None if value is None else check(value, path)


def check_bool(value, path):
    if not isinstance(value, bool):
        raise SpecError(path, f"expected true/false, got {value!r}")
    return value


def check_fraction(value, path):
    """A number in [0, 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, f"expected a number, got {value!r}")
    value = float(value)
    if value < 0.0:
        raise SpecError(path, f"must be >= 0.0, got {value}")
    if value >= 1.0:
        raise SpecError(path, f"must be < 1.0, got {value}")
    return value


def check_str(choices=None, pattern=None, nonempty=False):
    def check(value, path):
        if not isinstance(value, str) or (nonempty and not value):
            kind = "a non-empty string" if nonempty else "a string"
            raise SpecError(path, f"expected {kind}, got {value!r}")
        if choices is not None and value not in choices:
            raise SpecError(
                path, f"must be one of {', '.join(choices)}; got {value!r}"
            )
        if pattern is not None and value and not pattern.match(value):
            raise SpecError(path, f"malformed value {value!r}")
        return value

    return check


def check_tuple(item, nonempty=False):
    """A list or tuple of ``item``-checked values, as a tuple; items
    fail with an indexed path (``workload.sizes[1]``)."""

    def check(value, path):
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {value!r}")
        if nonempty and not value:
            raise SpecError(path, "must not be empty")
        return tuple(
            item(v, f"{path}[{i}]") for i, v in enumerate(value)
        )

    return check


def check_section(cls):
    """A ``cls`` instance, or the mapping ``cls.from_dict`` accepts."""
    return lambda value, path: (
        value if isinstance(value, cls) else cls.from_dict(value)
    )


_variant_name = check_str(nonempty=True)
_RANDOM_REWRITING = re.compile(r"RND\d*")


def _algorithm(value, path):
    name = _variant_name(value, path)
    # the registry resolves names case-insensitively
    if name.upper() not in MATCHER_FACTORIES:
        known = ", ".join(sorted(MATCHER_FACTORIES))
        raise SpecError(path, f"unknown algorithm {name!r}; known: {known}")
    return name


def _rewriting(value, path):
    name = _variant_name(value, path)
    if name not in REWRITING_FACTORIES and not _RANDOM_REWRITING.fullmatch(
        name
    ):
        known = ", ".join(sorted(REWRITING_FACTORIES)) + ", RND<k>"
        raise SpecError(path, f"unknown rewriting {name!r}; known: {known}")
    return name


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------

class Section:
    """Base of every schema dataclass.

    ``_CHECKS`` maps each field to its checker and ``_PATH`` is the
    section's dotted prefix.  Construction runs every checker (lists
    normalise to tuples, ints to floats where a fraction is wanted), so
    an instance that exists is valid however it was built;
    :meth:`from_dict` additionally rejects unknown keys, and
    :meth:`to_dict` is its lossless inverse.
    """

    _PATH = ""
    _CHECKS: dict = {}

    def __post_init__(self) -> None:
        for name, check in self._CHECKS.items():
            value = check(getattr(self, name), _join(self._PATH, name))
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data):
        """Build + validate from a mapping (``None`` = all defaults);
        an unknown or misspelled key fails with its full dotted path,
        never a silent default."""
        where = cls._PATH or "<config>"
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise SpecError(
                where, f"expected a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(cls._CHECKS), key=str)
        if unknown:
            raise SpecError(_join(cls._PATH, str(unknown[0])), "unknown key")
        for fld in fields(cls):
            if (
                fld.default is MISSING
                and fld.default_factory is MISSING
                and fld.name not in data
            ):
                raise SpecError(_join(cls._PATH, fld.name), "required")
        return cls(**data)

    def to_dict(self) -> dict:
        """A fully-populated nested dict (tuples emitted as lists).
        ``None`` means "not set" and is dropped, so the emitted YAML
        stays in the dialect and reloads identically."""
        out = {}
        for name in self._CHECKS:
            value = getattr(self, name)
            if isinstance(value, Section):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            if value is not None:
                out[name] = value
        return out


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
        "algorithms": check_tuple(_algorithm, nonempty=True),
        "rewritings": check_tuple(_rewriting, nonempty=True),
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

    def _load_options(self) -> dict:
        if self.kind == "nfv":
            return {"algorithms": self.engine.algorithms}
        return {}

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
            self.dataset, scale=self.scale, **self._load_options()
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
