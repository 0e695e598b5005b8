"""Declarative scenario harness: YAML experiment configs + runner.

The serving stack has more configuration axes than the paper did —
shards, replicas, routing, rebalancing, chaos plans, persisted stores,
coalescing — and ``scenarios/*.yaml`` is where a
combination of them becomes a *named, committed, digest-pinned*
experiment instead of a hand-wired flag spelling.  Three layers:

* :mod:`repro.scenarios.yamlite` — the strict stdlib YAML-subset
  parser the configs are written in;
* :mod:`repro.scenarios.config` — the schema (:class:`ScenarioConfig`:
  a :class:`repro.service.spec.ServiceSpec` plus the ``mutations``
  and ``expect`` sections), validated with full dotted error paths
  and losslessly round-trippable;
* :mod:`repro.scenarios.runner` — the generic conformance runner
  (:class:`ScenarioRunner` -> :class:`ScenarioResult`) plus the
  ``expect``-block evaluator and the directory-level
  :func:`verify_scenarios` driver CI's scenario-matrix job calls.

``repro scenario list|run|verify`` is the CLI surface
(``src/repro/cli.py:cmd_scenario``); ``docs/SCENARIOS.md`` is the
schema reference.
"""

from .config import (
    ExpectSpec,
    MutationSpec,
    ScenarioConfig,
    ScenarioConfigError,
    load_scenario_dir,
    load_scenario_file,
)
from .fuzz import random_scenario
from .runner import (
    ScenarioError,
    ScenarioResult,
    ScenarioRunner,
    evaluate_expect,
    run_with_siblings,
    verify_scenarios,
)
from .yamlite import YamliteError, dumps, loads

__all__ = [
    "ExpectSpec",
    "MutationSpec",
    "ScenarioConfig",
    "ScenarioConfigError",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioRunner",
    "YamliteError",
    "dumps",
    "evaluate_expect",
    "load_scenario_dir",
    "load_scenario_file",
    "loads",
    "random_scenario",
    "run_with_siblings",
    "verify_scenarios",
]
