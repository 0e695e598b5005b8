"""The declarative scenario schema: dataclasses + strict loader.

A :class:`ScenarioConfig` is one serving experiment expressed as data:
a :class:`repro.service.spec.ServiceSpec` — the workload, engine,
topology, fault plan and persistence mode that say which service the
experiment means, and the code that builds it — extended with a name,
the ``mutations`` update stream driven beside the queries, and an
``expect`` block of assertions evaluated against the run's
:class:`~repro.scenarios.runner.ScenarioResult`.

Loading is strict by construction (the machinery is the spec's):

* every key is checked against the schema — an unknown or misspelled
  key fails with its **full dotted path** (``topology.replica: unknown
  key``), never a silent default;
* every value is type- and range-checked with the same dotted paths,
  and every algorithm and rewriting name must resolve;
* cross-section rules (chaos needs a replicated topology, corruption
  classes need a store, the race must fit the worker pool) are
  validated at load time so a config that parses is a config that runs.

``to_dict``/``from_dict`` are lossless inverses over fully-populated
dicts, and :func:`repro.scenarios.yamlite.dumps` emits ``to_dict``
output back as parseable YAML — the round-trip contract
``tests/test_scenarios.py`` pins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from ..service.faults import StoreFaultInjector
from ..service.schema import (
    Section,
    SpecError,
    check_bool,
    check_fraction,
    check_int,
    check_optional,
    check_section,
    check_str,
    check_tuple,
)
from ..service.spec import ServiceSpec
from .yamlite import YamliteError, loads

__all__ = [
    "ExpectSpec",
    "MutationSpec",
    "ScenarioConfig",
    "ScenarioConfigError",
    "load_scenario_file",
    "load_scenario_dir",
]

#: the schema's names for the injector's corruption taxonomies:
#: ``faults.store_corruption`` draws from the first,
#: ``mutations.corrupt`` from the second
STORE_CORRUPTIONS = StoreFaultInjector.CORRUPTIONS
JOURNAL_CORRUPTIONS = StoreFaultInjector.JOURNAL_CORRUPTIONS

#: what the scenario surface has always called a schema violation
ScenarioConfigError = SpecError

_NAME = re.compile(r"^[a-z0-9][a-z0-9_-]*$")
_DIGEST = re.compile(r"^[0-9a-f]{16}$")
_SIBLING = check_str(pattern=_NAME, nonempty=True)


# ----------------------------------------------------------------------
# the scenario-only sections
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MutationSpec(Section):
    """The update stream: journaled add/remove mutations interleaved
    with queries at quiesce points (``count: 0`` = static collection).

    ``journal: true`` write-ahead journals every mutation;
    ``crash_replay: true`` additionally runs the cold-boot drill after
    the stream (fresh service, same journal, replay) and compares the
    replayed collection against the live one; ``corrupt`` names
    journal corruption classes injected *before* that replay, so the
    drill proves detection + quarantine instead of digest equality.
    """

    count: int = 0
    batch: int = 2
    every: int = 8
    seed: int = 7
    add_fraction: float = 0.6
    verify_oracle: bool = True
    journal: bool = False
    crash_replay: bool = False
    corrupt: tuple[str, ...] = ()

    _PATH = "mutations"
    _CHECKS = {
        "count": check_int(0),
        "batch": check_int(1),
        "every": check_int(1),
        "seed": check_int(0),
        "add_fraction": check_fraction,
        "verify_oracle": check_bool,
        "journal": check_bool,
        "crash_replay": check_bool,
        "corrupt": check_tuple(
            check_str(choices=JOURNAL_CORRUPTIONS, nonempty=True)
        ),
    }


@dataclass(frozen=True)
class ExpectSpec(Section):
    """Assertions evaluated against the scenario's result.

    Digest pins are exact (``answers_digest``/``decisions_digest``);
    ``*_match`` lists name **sibling scenarios in the same directory**
    whose corresponding digest must be bit-for-bit equal (the
    metamorphic layout-invariance claims); ``lost``/``killed``/
    ``degraded`` are exact counts when present; ``*_min`` are floors;
    ``waste_below``/``p95_within`` compare against a named sibling's
    ``fanout_waste`` (strictly less) and latency p95 (no worse).
    Mutation runs add ``mutations_applied``/``oracle_mismatches``
    (exact when present), ``replayed_min``/``journal_corrupt_min``
    (floors over the crash-replay drill), and ``replay_match`` (the
    replayed collection must answer identically to the live one).
    """

    answers_digest: str = ""
    decisions_digest: str = ""
    answers_match: tuple[str, ...] = ()
    decisions_match: tuple[str, ...] = ()
    lost: int | None = None
    killed: int | None = None
    degraded: int | None = None
    rerouted_min: int = 0
    injected_min: int = 0
    migrations_min: int = 0
    cache_hits_min: int = 0
    restores_min: int = 0
    corrupt_min: int = 0
    regrown_min: int = 0
    mutations_applied: int | None = None
    oracle_mismatches: int | None = None
    replayed_min: int = 0
    journal_corrupt_min: int = 0
    replay_match: bool = False
    waste_below: str = ""
    p95_within: str = ""

    _PATH = "expect"
    _CHECKS = {
        "answers_digest": check_str(pattern=_DIGEST),
        "decisions_digest": check_str(pattern=_DIGEST),
        "answers_match": check_tuple(_SIBLING),
        "decisions_match": check_tuple(_SIBLING),
        "lost": check_optional(check_int(0)),
        "killed": check_optional(check_int(0)),
        "degraded": check_optional(check_int(0)),
        "rerouted_min": check_int(0),
        "injected_min": check_int(0),
        "migrations_min": check_int(0),
        "cache_hits_min": check_int(0),
        "restores_min": check_int(0),
        "corrupt_min": check_int(0),
        "regrown_min": check_int(0),
        "mutations_applied": check_optional(check_int(0)),
        "oracle_mismatches": check_optional(check_int(0)),
        "replayed_min": check_int(0),
        "journal_corrupt_min": check_int(0),
        "replay_match": check_bool,
        "waste_below": check_str(pattern=_NAME),
        "p95_within": check_str(pattern=_NAME),
    }

    def siblings(self) -> tuple[str, ...]:
        """Every sibling scenario name this block references."""
        names: list[str] = []
        for name in (
            *self.answers_match,
            *self.decisions_match,
            self.waste_below,
            self.p95_within,
        ):
            if name and name not in names:
                names.append(name)
        return tuple(names)


# ----------------------------------------------------------------------
# the config
# ----------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(ServiceSpec):
    """One declarative serving experiment (see module docstring)."""

    name: str
    description: str = ""
    mutations: MutationSpec = field(default_factory=MutationSpec)
    expect: ExpectSpec = field(default_factory=ExpectSpec)

    _CHECKS = {
        "name": check_str(pattern=_NAME, nonempty=True),
        "description": check_str(),
        **ServiceSpec._CHECKS,
        "mutations": check_section(MutationSpec),
        "expect": check_section(ExpectSpec),
    }

    def _validate_cross(self) -> None:
        """The service's cross-section rules, then the experiment's."""
        super()._validate_cross()
        f, p, mu, ex = (
            self.faults, self.persistence, self.mutations, self.expect,
        )
        if f.store_corruption and not p.store:
            raise ScenarioConfigError(
                "faults.store_corruption",
                "needs persistence.store: true (nothing to corrupt)",
            )
        if mu.count and self.kind != "ftv":
            raise ScenarioConfigError(
                "mutations.count",
                "dynamic collections are FTV-only; pick a graph "
                "collection dataset",
            )
        if not mu.count:
            for key, value in (
                ("journal", mu.journal),
                ("crash_replay", mu.crash_replay),
                ("corrupt", mu.corrupt),
            ):
                if value:
                    raise ScenarioConfigError(
                        f"mutations.{key}", "needs mutations.count >= 1"
                    )
        if mu.crash_replay and not mu.journal:
            raise ScenarioConfigError(
                "mutations.crash_replay",
                "needs mutations.journal: true (nothing to replay)",
            )
        if mu.corrupt and not mu.crash_replay:
            raise ScenarioConfigError(
                "mutations.corrupt",
                "needs mutations.crash_replay: true (corruption is "
                "only observed at replay)",
            )
        if mu.count and p.regrow:
            raise ScenarioConfigError(
                "persistence.regrow",
                "not supported alongside a mutation stream",
            )
        if ex.replay_match or ex.replayed_min or ex.journal_corrupt_min:
            if not mu.crash_replay:
                raise ScenarioConfigError(
                    "expect",
                    "replay assertions need mutations.crash_replay: "
                    "true",
                )
        if ex.replay_match and mu.corrupt:
            raise ScenarioConfigError(
                "expect.replay_match",
                "a corrupted journal cannot replay to equality; assert "
                "journal_corrupt_min instead",
            )
        if ex.mutations_applied is not None and not mu.count:
            raise ScenarioConfigError(
                "expect.mutations_applied", "needs mutations.count >= 1"
            )
        if ex.oracle_mismatches is not None and not (
            mu.count and mu.verify_oracle
        ):
            raise ScenarioConfigError(
                "expect.oracle_mismatches",
                "needs a mutation stream with verify_oracle: true",
            )
        if self.name in ex.siblings():
            raise ScenarioConfigError(
                "expect", f"scenario {self.name!r} references itself"
            )
        if self.workload.decision_only and ex.answers_match:
            raise ScenarioConfigError(
                "expect.answers_match",
                "decision-only witness sets are layout-dependent; pin "
                "expect.decisions_match instead",
            )


# ----------------------------------------------------------------------
# file + directory loading
# ----------------------------------------------------------------------

def load_scenario_file(path) -> ScenarioConfig:
    """Parse + validate one ``*.yaml`` scenario config."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioConfigError(
            str(path), f"cannot read scenario file ({exc.strerror})"
        ) from exc
    try:
        data = loads(text)
    except YamliteError as exc:
        raise ScenarioConfigError(f"{path}:{exc.line}", str(exc)) from exc
    try:
        return ScenarioConfig.from_dict(data)
    except ScenarioConfigError as exc:
        raise ScenarioConfigError(f"{path}: {exc.path}", _msg(exc)) from exc


def _msg(exc: ScenarioConfigError) -> str:
    text = str(exc)
    prefix = f"{exc.path}: "
    return text[len(prefix):] if text.startswith(prefix) else text


def load_scenario_dir(path) -> dict[str, ScenarioConfig]:
    """Load every ``*.yaml`` under ``path``; validates that names are
    unique and every ``expect`` sibling reference resolves."""
    root = Path(path)
    if not root.is_dir():
        raise ScenarioConfigError(
            str(root), "not a scenario directory"
        )
    files = sorted(root.glob("*.yaml")) + sorted(root.glob("*.yml"))
    if not files:
        raise ScenarioConfigError(
            str(root), "no *.yaml scenario configs found"
        )
    configs: dict[str, ScenarioConfig] = {}
    sources: dict[str, Path] = {}
    for file in files:
        cfg = load_scenario_file(file)
        if cfg.name in configs:
            raise ScenarioConfigError(
                f"{file}: name",
                f"duplicate scenario name {cfg.name!r} "
                f"(also in {sources[cfg.name].name})",
            )
        configs[cfg.name] = cfg
        sources[cfg.name] = file
    for cfg in configs.values():
        for sib in cfg.expect.siblings():
            if sib not in configs:
                raise ScenarioConfigError(
                    f"{sources[cfg.name]}: expect",
                    f"references unknown sibling scenario {sib!r}",
                )
    return configs
