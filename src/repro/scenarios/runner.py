"""The generic conformance runner behind ``repro scenario``.

:class:`ScenarioRunner` turns a :class:`~repro.scenarios.config.
ScenarioConfig` into a live :class:`~repro.service.Service` through the
*same* code the CLI uses — a config is a
:class:`~repro.service.spec.ServiceSpec`, and the spec's builders are
the only ones there are — drives it with :meth:`~repro.service.spec.
ServiceSpec.drive` (handing it the planned update stream when the
config has a ``mutations:`` section, and following it with the optional
crash-replay drill — corrupt the journal, reboot cold, replay,
compare), and distils the run into a
typed :class:`ScenarioResult` — digests, latency summary, and every
chaos/store/routing/mutation counter the ``expect`` vocabulary can
assert on.

Hermeticity contract: each run clears the process-global prepare
cache first, so a scenario's counters (and therefore its
:meth:`ScenarioResult.fingerprint`) are identical whether it runs
first, last, or twice in one process — the property the fuzz
determinism suite pins.  Store-mode scenarios warm a catalog of the
configured layout, persist it via :class:`repro.store.writer.
StoreWriter` into a throwaway directory, optionally corrupt it
(:class:`repro.service.faults.StoreFaultInjector` classes named by
``faults.store_corruption``), and only then boot the service from the
damaged bytes — the cold-boot drill as data.

:func:`evaluate_expect` checks one scenario's ``expect`` block against
its result and its sibling results; :func:`verify_scenarios` runs a
whole config directory once and evaluates every block — the CI
``scenario-matrix`` job is exactly that call.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Optional

from ..service.stats import StatsView
from .config import ScenarioConfig

__all__ = [
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "evaluate_expect",
    "run_with_siblings",
    "verify_scenarios",
]


class ScenarioError(RuntimeError):
    """A scenario that cannot run (as opposed to one that fails its
    ``expect`` block)."""


@dataclass
class ScenarioResult:
    """Everything one scenario run measured, JSON-ready.

    Every field is a pure function of the config (virtual clock, no
    wall time anywhere), so :meth:`fingerprint` is a determinism
    witness: two runs of the same config must produce the same value.
    """

    name: str
    answers_digest: str
    decisions_digest: str
    results_digest: str
    completed: int
    killed: int
    lost: int
    degraded: int
    injected: int
    retries: int
    rerouted: int
    migrations: int
    rebalances: int
    regrown: int
    fanout_waste: int
    cache_hits: int
    restores: int
    rebuilds: int
    corrupt_detected: int
    quarantined: int
    virtual_steps: int
    per_shard_work: list = field(default_factory=list)
    latency: Optional[dict] = None
    #: sha256[:16] over the ``Service.stats()`` sections of the
    #: registry snapshot — the whole stats view participates in the
    #: determinism claim
    stats_digest: str = ""
    # -- mutation streams (all zero/None on static scenarios) ----------
    mutations_applied: int = 0
    mutations_rejected: int = 0
    oracle_checks: int = 0
    oracle_mismatches: int = 0
    #: crash-replay drill: records re-applied on the cold reboot
    replayed: int = 0
    #: journal defect classes recovery detected before replay
    journal_corrupt_detected: int = 0
    #: replayed collection answers == live collection answers
    #: (None = no drill ran)
    replay_digest_match: Optional[bool] = None

    @property
    def p95(self) -> Optional[int]:
        return self.latency.get("p95") if self.latency else None

    def fingerprint(self) -> str:
        """Digest over every field; equal across identical runs."""
        payload = json.dumps(
            asdict(self), sort_keys=True, default=str
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def as_dict(self) -> dict:
        return asdict(self)


def _stats_digest(stats: dict) -> str:
    """Digest over the whole stats snapshot: every section is a count
    of the deterministic run."""
    payload = json.dumps(stats, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ScenarioRunner:
    """Build-and-drive one :class:`ScenarioConfig` (see module doc)."""

    def run(self, config: ScenarioConfig) -> ScenarioResult:
        with tempfile.TemporaryDirectory(
            prefix=f"scenario-{config.name}-"
        ) as tmp:
            return self._run_in(config, tmp)

    # -- internals -----------------------------------------------------

    def _run_in(self, config: ScenarioConfig, tmp: str) -> ScenarioResult:
        from ..caching import CacheStats, prepare_cache

        # hermeticity: scenario counters must not depend on what else
        # ran in this process (see module docstring); clear() bills
        # its drops as evictions, so the stats reset must come second
        prepare_cache.clear()
        prepare_cache.stats = CacheStats()
        store = (
            self._warm_store(config, tmp)
            if config.persistence.store
            else None
        )
        m = config.mutations
        journal = f"{tmp}/journal" if m.journal else None
        service = config.build_service(store=store, journal=journal)
        streams = config.tenant_streams(service)
        report = config.drive(
            service, streams, **self._update_stream(config, service)
        )
        drill = (
            self._crash_replay(config, store, journal, service)
            if m.crash_replay
            else None
        )
        return self._distil(config, service, report, drill)

    def _update_stream(self, config, service) -> dict:
        """The ``mutations:`` section as the closed loop's update-stream
        arguments ({} = static collection)."""
        from ..service.loadgen import plan_update_stream

        m = config.mutations
        if not m.count:
            return {}
        entry = service.catalog.get(config.dataset)
        base = [entry.graphs[g] for g in entry.live_graph_ids()]
        return {
            "mutations": plan_update_stream(
                base, m.count, seed=m.seed, add_fraction=m.add_fraction
            ),
            "mutate_every": m.every,
            "batch": m.batch,
            "probe_seed": m.seed,
            "verify_oracle": m.verify_oracle,
        }

    def _crash_replay(self, config, store, journal, live) -> dict:
        """The cold-boot drill: corrupt (optionally), reboot, replay.

        A second service is built from the *same* spec — the same
        warm store if the scenario has one, the same builder if not —
        so the only state that survives the simulated crash is the
        checkpoint plus the journal.  After replay both services must
        answer an identical probe set identically (unless the journal
        was deliberately corrupted, in which case the drill instead
        counts the defect classes recovery detected + quarantined).
        """
        from ..service.faults import StoreFaultInjector
        from ..service.loadgen import collection_digest
        from ..workload import generate_workload

        m = config.mutations
        if m.corrupt:
            injector = StoreFaultInjector(journal, seed=config.faults.seed)
            for kind in m.corrupt:
                getattr(injector, kind)()
        reborn = config.build_service(store=store, journal=journal)
        recovery = reborn.replay_journal()
        entry = reborn.catalog.get(config.dataset)
        base = [entry.graphs[g] for g in entry.live_graph_ids()]
        probes = [
            q.graph
            for q in generate_workload(base, 6, 3, seed=m.seed + 101)
        ]
        return {
            "replayed": reborn.mutations.replayed.value,
            "journal_corrupt_detected": len(recovery.detected),
            "replay_digest_match": (
                collection_digest(reborn, config.dataset, probes)
                == collection_digest(live, config.dataset, probes)
            ),
        }

    def _warm_store(self, config: ScenarioConfig, tmp: str) -> str:
        """Warm a catalog of the configured layout, persist it, apply
        the configured corruption classes, return the store dir."""
        from ..service.faults import StoreFaultInjector
        from ..store import StoreWriter

        store_dir = f"{tmp}/store"
        StoreWriter(store_dir).write_catalog(config.warm_catalog())
        if config.faults.store_corruption:
            injector = StoreFaultInjector(
                store_dir, seed=config.faults.seed
            )
            blob_kinds = (
                "torn_write", "truncate", "bit_flip", "delete_blob"
            )
            for i, kind in enumerate(config.faults.store_corruption):
                # blob faults take a victim index (spread over distinct
                # blobs); manifest faults target the one manifest
                if kind in blob_kinds:
                    getattr(injector, kind)(i)
                else:
                    getattr(injector, kind)()
        return store_dir

    def _distil(
        self, config, service, report, drill=None
    ) -> ScenarioResult:
        # read after the crash drill, which probes the live service
        metrics = service.metrics.snapshot()
        stats = StatsView.sections(metrics.__getitem__)
        faults = stats["faults"]
        mutations = metrics["service.mutations"]
        drill = drill or {}
        return ScenarioResult(
            name=config.name,
            answers_digest=report.answers,
            decisions_digest=report.decisions,
            results_digest=report.digest,
            completed=len(report.completed),
            killed=report.killed,
            lost=report.lost,
            degraded=faults["degraded"],
            injected=faults["injected"],
            retries=faults["retries"],
            rerouted=faults["rerouted"],
            migrations=metrics.get("rebalance.migrations", 0),
            rebalances=metrics.get("rebalance.rebalances", 0),
            regrown=len(report.regrown),
            fanout_waste=stats["fanout_waste"],
            cache_hits=stats["result_cache"]["hits"],
            restores=metrics.get("store.restores", 0),
            rebuilds=metrics.get("store.rebuilds", 0),
            corrupt_detected=metrics.get("store.corrupt_detected", 0),
            quarantined=metrics.get("store.quarantined", 0),
            virtual_steps=report.virtual_steps,
            per_shard_work=list(stats["per_shard_work"]),
            latency=stats["latency_steps"],
            stats_digest=_stats_digest(stats),
            mutations_applied=mutations["applied"],
            mutations_rejected=mutations["rejected"],
            oracle_checks=len(report.checks),
            oracle_mismatches=sum(1 for c in report.checks if not c["ok"]),
            replayed=drill.get("replayed", 0),
            journal_corrupt_detected=drill.get(
                "journal_corrupt_detected", 0
            ),
            replay_digest_match=drill.get("replay_digest_match"),
        )


# ----------------------------------------------------------------------
# expect evaluation
# ----------------------------------------------------------------------

def evaluate_expect(
    config: ScenarioConfig,
    result: ScenarioResult,
    siblings: Mapping[str, ScenarioResult],
) -> list[str]:
    """Check ``config.expect`` against ``result``; one line per
    violated assertion (empty list = the scenario conforms)."""
    e = config.expect
    fails: list[str] = []

    def fail(path: str, message: str) -> None:
        fails.append(f"{config.name}: expect.{path}: {message}")

    def sibling(name: str, path: str) -> Optional[ScenarioResult]:
        if name not in siblings:
            fail(path, f"sibling scenario {name!r} was not run")
            return None
        return siblings[name]

    if e.answers_digest and result.answers_digest != e.answers_digest:
        fail(
            "answers_digest",
            f"observed {result.answers_digest}, pinned {e.answers_digest}",
        )
    if e.decisions_digest and result.decisions_digest != e.decisions_digest:
        fail(
            "decisions_digest",
            f"observed {result.decisions_digest}, "
            f"pinned {e.decisions_digest}",
        )
    for name in e.answers_match:
        sib = sibling(name, "answers_match")
        if sib and sib.answers_digest != result.answers_digest:
            fail(
                "answers_match",
                f"answers diverged from {name!r}: "
                f"{result.answers_digest} != {sib.answers_digest}",
            )
    for name in e.decisions_match:
        sib = sibling(name, "decisions_match")
        if sib and sib.decisions_digest != result.decisions_digest:
            fail(
                "decisions_match",
                f"decisions diverged from {name!r}: "
                f"{result.decisions_digest} != {sib.decisions_digest}",
            )
    for attr, pin in (
        ("lost", e.lost), ("killed", e.killed), ("degraded", e.degraded),
        ("mutations_applied", e.mutations_applied),
        ("oracle_mismatches", e.oracle_mismatches),
    ):
        if pin is not None and getattr(result, attr) != pin:
            fail(attr, f"observed {getattr(result, attr)}, expected {pin}")
    for key, attr, floor in (
        ("rerouted_min", "rerouted", e.rerouted_min),
        ("injected_min", "injected", e.injected_min),
        ("migrations_min", "migrations", e.migrations_min),
        ("cache_hits_min", "cache_hits", e.cache_hits_min),
        ("restores_min", "restores", e.restores_min),
        ("corrupt_min", "corrupt_detected", e.corrupt_min),
        ("regrown_min", "regrown", e.regrown_min),
        ("replayed_min", "replayed", e.replayed_min),
        (
            "journal_corrupt_min", "journal_corrupt_detected",
            e.journal_corrupt_min,
        ),
    ):
        if floor and getattr(result, attr) < floor:
            fail(key, f"observed {getattr(result, attr)}, need >= {floor}")
    if e.replay_match and result.replay_digest_match is not True:
        fail(
            "replay_match",
            "replayed collection diverged from the live one"
            if result.replay_digest_match is False
            else "no crash-replay drill ran",
        )
    if e.waste_below:
        sib = sibling(e.waste_below, "waste_below")
        if sib and result.fanout_waste >= sib.fanout_waste:
            fail(
                "waste_below",
                f"fanout_waste {result.fanout_waste} not below "
                f"{e.waste_below!r}'s {sib.fanout_waste}",
            )
    if e.p95_within:
        sib = sibling(e.p95_within, "p95_within")
        if sib:
            if result.p95 is None or sib.p95 is None:
                fail("p95_within", "latency summary missing")
            elif result.p95 > sib.p95:
                fail(
                    "p95_within",
                    f"p95 {result.p95} exceeds {e.p95_within!r}'s "
                    f"{sib.p95}",
                )
    return fails


# ----------------------------------------------------------------------
# directory drivers
# ----------------------------------------------------------------------

def run_with_siblings(
    configs: Mapping[str, ScenarioConfig],
    targets: list[str],
    runner: Optional[ScenarioRunner] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, ScenarioResult]:
    """Run ``targets`` plus every sibling their expect blocks name
    (transitively), each exactly once, in sorted-name order."""
    runner = runner or ScenarioRunner()
    needed: list[str] = []
    frontier = list(targets)
    while frontier:
        name = frontier.pop(0)
        if name in needed:
            continue
        if name not in configs:
            raise ScenarioError(f"unknown scenario {name!r}")
        needed.append(name)
        frontier.extend(configs[name].expect.siblings())
    results: dict[str, ScenarioResult] = {}
    for name in sorted(needed):
        if progress:
            progress(name)
        results[name] = runner.run(configs[name])
    return results


def verify_scenarios(
    configs: Mapping[str, ScenarioConfig],
    runner: Optional[ScenarioRunner] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[dict[str, ScenarioResult], list[str]]:
    """Run every config once and evaluate every expect block; returns
    (results by name, conformance failures).  The scenario-matrix CI
    job fails iff the failure list is non-empty."""
    results = run_with_siblings(
        configs, sorted(configs), runner=runner, progress=progress
    )
    failures: list[str] = []
    for name in sorted(configs):
        failures.extend(
            evaluate_expect(configs[name], results[name], results)
        )
    return results, failures
