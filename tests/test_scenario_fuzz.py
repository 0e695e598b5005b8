"""Property-based determinism fuzz: random configs, identical reruns.

Fifty seeded :func:`repro.scenarios.fuzz.random_scenario` configs
sweep the axis cross product (shards x replicas x routing x coalesce,
plus chaos, decision mode, rebalance, tenant counts).
Each config runs **twice in the same process**; the two
:class:`ScenarioResult` snapshots must be bit-identical — digests,
counters, latency summary, and the full service-stats digest.  That
is the strongest determinism claim the serving stack makes, and the
one the scenario matrix's pinned digests depend on.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    ScenarioConfig,
    ScenarioRunner,
    random_scenario,
)

SEEDS = range(50)


def test_generator_is_a_pure_function_of_the_seed():
    for seed in (0, 17, 49):
        assert random_scenario(seed) == random_scenario(seed)


def test_generator_covers_the_axis_cross_product():
    configs = [random_scenario(seed) for seed in SEEDS]
    assert {c.topology.shards for c in configs} >= {1, 2, 3}
    assert {c.topology.replicas for c in configs} == {1, 2}
    assert {c.topology.routing for c in configs} == {True, False}
    assert {c.engine.coalesce for c in configs} == {True, False}
    assert {c.faults.chaos for c in configs} == {True, False}
    assert {c.workload.decision_only for c in configs} == {True, False}
    assert len({c.name for c in configs}) == len(configs)
    mutated = [c for c in configs if c.mutations.count]
    assert mutated and len(mutated) < len(configs)
    assert any(c.mutations.journal for c in mutated)
    assert any(c.mutations.crash_replay for c in mutated)


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_runs_are_deterministic(seed):
    cfg = random_scenario(seed)
    # the generator only emits schema-valid configs: the round trip
    # re-validates every section
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    runner = ScenarioRunner()
    first = runner.run(cfg)
    second = runner.run(cfg)
    assert first.fingerprint() == second.fingerprint()
    assert first.stats_digest == second.stats_digest
    assert first.as_dict() == second.as_dict()
    assert first.lost == 0
