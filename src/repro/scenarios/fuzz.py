"""Seeded random scenario generation for the determinism fuzz suite.

:func:`random_scenario` maps an integer seed to a *small but varied*
:class:`~repro.scenarios.config.ScenarioConfig` — the cross product
the satellite names (shards x replicas x routing x coalesce, plus
decision mode, chaos, tenant counts) at a query volume
tiny enough that running ~100 of them stays inside a test budget.

Determinism contract: the generator is a pure function of the seed
(one private ``random.Random``), and every config it emits passes
schema validation — so ``tests/test_scenario_fuzz.py`` can run each
config twice and assert identical :meth:`ScenarioResult.fingerprint`
values without ever persisting a YAML file.
"""

from __future__ import annotations

import random

from ..service.spec import (
    EngineSpec,
    FaultSpec,
    PersistenceSpec,
    TopologySpec,
    WorkloadSpec,
)
from .config import MutationSpec, ScenarioConfig

__all__ = ["random_scenario"]


def _random_mutations(seed: int, ftv: bool) -> MutationSpec:
    """The mutation arm, drawn from its *own* rng stream so adding it
    left every pre-existing axis draw (and thus every fuzz topology)
    untouched."""
    rng = random.Random(f"scenario-fuzz-mutations:{seed}")
    if not ftv or rng.random() >= 0.35:
        return MutationSpec()
    journal = rng.random() < 0.6
    return MutationSpec(
        count=rng.randint(3, 8),
        batch=rng.randint(1, 3),
        every=rng.choice((3, 6)),
        seed=rng.randint(0, 10_000),
        add_fraction=rng.choice((0.4, 0.6, 0.8)),
        journal=journal,
        crash_replay=journal and rng.random() < 0.4,
    )


def random_scenario(seed: int) -> ScenarioConfig:
    """A small schema-valid scenario, a pure function of ``seed``."""
    rng = random.Random(f"scenario-fuzz:{seed}")
    # FTV collections shard; the NFV single-graph datasets exercise
    # the one-shard algorithm x rewriting race instead
    dataset = rng.choice(("yeast", "ppi", "synthetic"))
    ftv = dataset in ("ppi", "synthetic")
    shards = rng.choice((1, 2, 3)) if ftv else 1
    replicas = rng.choice((1, 2)) if shards > 1 else 1
    chaos = shards >= 2 and replicas >= 2 and rng.random() < 0.5
    decision_only = ftv and rng.random() < 0.3
    rebalance = shards >= 2 and not chaos and rng.random() < 0.25
    sizes = rng.choice(((4, 8), (4, 8, 12), (6,), (8, 4)))
    workload = WorkloadSpec(
        queries=rng.randint(6, 12),
        tenants=rng.randint(1, 3),
        sizes=sizes,
        repeat_fraction=rng.choice((0.0, 0.2, 0.35)),
        seed=rng.randint(0, 10_000),
        concurrency=rng.randint(1, 2),
        decision_only=decision_only,
        budget=rng.choice((60_000, 200_000)),
    )
    # one draw a since-deleted engine knob used to take: keeping it
    # keeps every later draw, and so the seeded configs, where they were
    rng.random()
    return ScenarioConfig(
        name=f"fuzz-{seed}",
        dataset=dataset,
        description=f"seeded fuzz scenario {seed}",
        scale="tiny",
        workload=workload,
        engine=EngineSpec(
            workers=4,
            coalesce=rng.random() < 0.8,
        ),
        topology=TopologySpec(
            shards=shards,
            replicas=replicas,
            routing=rng.random() < 0.6,
            assignment=rng.choice(("size_balanced", "hash")),
            rebalance=rebalance,
            rebalance_every=3 if rebalance else 0,
        ),
        faults=FaultSpec(
            chaos=chaos,
            seed=rng.randint(0, 10_000),
        ),
        persistence=PersistenceSpec(),
        mutations=_random_mutations(seed, ftv),
    )
