"""The one service definition: ``repro.service.spec.ServiceSpec``.

Four claims: the CLI front end and a hand-built spec denote the same
value; a scenario config *is* such a spec (so its round trip goes
through the spec's own validation); ``Service`` can be configured with
exactly what a spec can say; and nothing in the library reaches back
into the CLI.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import _service_spec, build_parser
from repro.scenarios import (
    ScenarioConfig,
    load_scenario_dir,
    random_scenario,
)
from repro.service import QueryOptions, Service, spec as spec_module
from repro.service.planner import SERVED_ALGORITHMS, SERVED_REWRITINGS
from repro.service.sharding import ShardedCatalog
from repro.service.spec import (
    EngineSpec,
    FaultSpec,
    ServiceSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)

REPO = Path(__file__).resolve().parent.parent

#: what ``repro serve`` means with no flags but the dataset: the CLI
#: keeps its own defaults (50 queries, default scale), the schema its
CLI_WORKLOAD = dict(queries=50)


def serve_spec(*flags):
    return _service_spec(
        build_parser().parse_args(["serve", "--dataset", "ppi", *flags])
    )


class TestCliDenotesTheSameValue:
    @pytest.mark.parametrize("flags, sections", [
        ((), {}),
        (("--shards", "2", "--no-routing"),
         {"topology": TopologySpec(shards=2, routing=False)}),
        (("--no-coalesce", "--workers", "2"),
         {"engine": EngineSpec(coalesce=False, workers=2)}),
        (("--chaos", "--chaos-seed", "7", "--replicas", "2",
          "--shards", "2"),
         {"topology": TopologySpec(shards=2, replicas=2),
          "faults": FaultSpec(chaos=True, seed=7)}),
        (("--sizes", "4,6"),
         {"workload": WorkloadSpec(sizes=(4, 6), **CLI_WORKLOAD)}),
        (("--queries", "2", "--tenants", "5"),
         {"workload": WorkloadSpec(queries=2, tenants=5)}),
    ])
    def test_flags_map_to_the_hand_built_spec(self, flags, sections):
        sections.setdefault("workload", WorkloadSpec(**CLI_WORKLOAD))
        assert serve_spec(*flags) == ServiceSpec(
            dataset="ppi", scale="default", **sections
        )

    def test_tenant_clamp_is_derived_not_written_back(self):
        spec = serve_spec("--queries", "2", "--tenants", "5")
        assert spec.workload.tenants == 5
        assert spec.tenants == 2

    def test_store_directory_is_an_argument_not_a_field(self):
        spec = serve_spec("--store", "/some/where")
        assert spec.persistence.store is True
        assert "/some/where" not in repr(spec)


class TestValidatesAtConstruction:
    def test_lists_normalise_and_bad_values_carry_their_path(self):
        assert WorkloadSpec(sizes=[4, 6]).sizes == (4, 6)
        for build, path in (
            (lambda: WorkloadSpec(queries=0), "workload.queries"),
            (lambda: EngineSpec(rewritings=("Orig", "NOPE")),
             "engine.rewritings[1]"),
            (lambda: EngineSpec(rewritings=()), "engine.rewritings"),
            (lambda: ServiceSpec(dataset="nope"), "dataset"),
            (lambda: ServiceSpec(
                dataset="ppi", faults=FaultSpec(chaos=True)
            ), "faults.chaos"),
        ):
            with pytest.raises(SpecError) as err:
                build()
            assert err.value.path == path


class TestOneServedField:
    """The variant field the service races by default is declared once,
    beside ``QueryOptions``; every default in the tree reads it."""

    def test_every_default_is_the_declared_field(self):
        assert SERVED_ALGORITHMS == ("GQL", "SPA")
        assert SERVED_REWRITINGS == ("Orig", "DND")
        for algorithms, rewritings in (
            (QueryOptions().algorithms, QueryOptions().rewritings),
            (EngineSpec().algorithms, EngineSpec().rewritings),
        ):
            assert algorithms == SERVED_ALGORITHMS
            assert rewritings == SERVED_REWRITINGS
        load = inspect.signature(ShardedCatalog.load).parameters
        assert load["algorithms"].default is SERVED_ALGORITHMS
        parser = build_parser()
        for argv in (
            ["race", "--dataset", "yeast"],
            ["warm", "--store", "somewhere"],
            ["serve"],
        ):
            args = parser.parse_args(argv)
            assert args.algorithms == ",".join(SERVED_ALGORITHMS)
            assert getattr(args, "rewritings", "Orig,DND") == ",".join(
                SERVED_REWRITINGS
            )

    def test_the_width_rule_reads_the_dataset_kind(self):
        """An NFV race is the algorithm x rewriting product, an FTV race
        one VF2 sweep per rewriting."""
        engine = EngineSpec(workers=4, algorithms=("GQL", "SPA", "VF2"))
        assert ServiceSpec(dataset="ppi", engine=engine).kind == "ftv"
        with pytest.raises(SpecError, match="6 variants wide") as err:
            ServiceSpec(dataset="yeast", engine=engine)
        assert err.value.path == "engine.workers"


class TestTheConstructorIsTheSpec:
    """A ``Service`` keyword no spec can set is a knob no deployment
    can reach: adding one fails here until ``build_service`` passes it."""

    KEYWORDS = [
        "workers", "admission", "coalesce", "shards", "replicas",
        "routing", "assignment", "store", "journal",
    ]

    def test_service_takes_exactly_these_keywords(self):
        parameters = list(inspect.signature(Service.__init__).parameters)
        assert parameters == ["self", *self.KEYWORDS]

    def test_build_service_passes_every_keyword(self, monkeypatch):
        """The load path is pinned the same way, for a collection and
        for an NFV graph: a ``load_dataset`` keyword the spec does not
        pass is a load option no deployment can set."""
        load = list(inspect.signature(Service.load_dataset).parameters)
        assert load[:2] == ["self", "name"]
        passed, loaded = {}, {}

        class Recorder:
            def __init__(self, **keywords):
                passed.update(keywords)

            def load_dataset(self, name, **keywords):
                loaded.update(keywords)

        monkeypatch.setattr(spec_module, "Service", Recorder)
        for dataset in ("ppi", "yeast"):
            passed.clear()
            loaded.clear()
            ServiceSpec(dataset=dataset).build_service()
            assert sorted(passed) == sorted(self.KEYWORDS)
            assert sorted(loaded) == sorted(load[2:]), dataset


class TestScenarioIsASpec:
    def test_round_trip_goes_through_the_spec(self):
        configs = list(load_scenario_dir(REPO / "scenarios").values())
        configs += [random_scenario(seed) for seed in range(50)]
        service_fields = [f.name for f in fields(ServiceSpec)]
        for cfg in configs:
            assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
            # the service half alone is the same valid value
            spec = ServiceSpec(
                **{name: getattr(cfg, name) for name in service_fields}
            )
            assert spec.to_dict() == {
                name: cfg.to_dict()[name] for name in service_fields
            }


def test_the_library_never_reaches_into_the_cli():
    """Only the CLI front end parses arguments or ends the process."""
    offenders = []
    root = REPO / "src" / "repro"
    for path in sorted(root.rglob("*.py")):
        if path.name in ("cli.py", "__main__.py"):
            continue
        module = ".".join(path.relative_to(root.parent).parts[:-1])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # resolve "from ..cli import x" against this module
                base = module.split(".")
                base = base[:len(base) - node.level + 1] if node.level else []
                names = [".".join(base + [node.module or ""]).strip(".")]
                names += [f"{names[0]}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(
                    node.exc, ast.Call
                ) else node.exc
                names = ["SystemExit"] if (
                    isinstance(exc, ast.Name) and exc.id == "SystemExit"
                ) else []
            else:
                continue
            for name in names:
                if name in ("argparse", "SystemExit", "repro.cli") or (
                    name.startswith("repro.cli.")
                ):
                    offenders.append(f"{path.relative_to(REPO)}: {name}")
    assert offenders == []
