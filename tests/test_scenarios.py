"""The declarative scenario harness: schema, runner, expect blocks.

Three layers under test:

* ``repro.scenarios.yamlite`` — the strict YAML-subset parser the
  configs are written in (round-trips, loud rejections);
* ``repro.scenarios.config`` — schema validation with full dotted
  error paths, cross-section rules, lossless to_dict/from_dict;
* ``repro.scenarios.runner`` + the committed ``scenarios/*.yaml``
  matrix — every config runs in-process (plus the siblings its
  ``expect`` block names) and every assertion must hold, which is the
  same check CI's scenario-matrix job performs via
  ``repro scenario verify scenarios``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenarios import (
    ScenarioConfig,
    ScenarioConfigError,
    ScenarioError,
    ScenarioResult,
    dumps,
    evaluate_expect,
    load_scenario_dir,
    load_scenario_file,
    loads,
    random_scenario,
    run_with_siblings,
    verify_scenarios,
)
from repro.scenarios.config import STORE_CORRUPTIONS
from repro.scenarios.yamlite import YamliteError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# collection-time load: parses 14 small files, runs nothing
SCENARIO_NAMES = sorted(load_scenario_dir(SCENARIO_DIR))


# ----------------------------------------------------------------------
# yamlite: the strict YAML subset
# ----------------------------------------------------------------------

class TestYamlite:
    def test_scalars(self):
        doc = loads(
            "a: 1\n"
            "b: 2.5\n"
            "c: true\n"
            "d: false\n"
            "e: null\n"
            "f: ~\n"
            "g: bare_string\n"
            "h: 'quoted: string'\n"
            'i: "also quoted"\n'
            "j: 200_000\n"
        )
        assert doc == {
            "a": 1, "b": 2.5, "c": True, "d": False, "e": None,
            "f": None, "g": "bare_string", "h": "quoted: string",
            "i": "also quoted", "j": 200_000,
        }

    def test_nesting_lists_and_comments(self):
        doc = loads(
            "top: 1  # trailing comment\n"
            "# full-line comment\n"
            "section:\n"
            "  inline: [4, 8, 12]\n"
            "  block:\n"
            "    - alpha\n"
            "    - beta\n"
            "  deeper:\n"
            "    leaf: ok\n"
        )
        assert doc["section"]["inline"] == [4, 8, 12]
        assert doc["section"]["block"] == ["alpha", "beta"]
        assert doc["section"]["deeper"]["leaf"] == "ok"

    @pytest.mark.parametrize("text, fragment", [
        ("", "empty document"),
        ("  indented: 1\n", "column 0"),
        ("a: 1\na: 2\n", "duplicate key"),
        ("a:\n", "no value"),
        ("a: 'unterminated\n", "unterminated"),
        ("a: [1, 2\n", "unterminated inline list"),
        ("a: [1, , 2]\n", "empty inline list element"),
        ("a: 1\n\tb: 2\n", "tabs"),
        ("a: &anchor\n", "unsupported YAML construct"),
        ("a: |\n  block\n", "unsupported YAML construct"),
        ("a: 1\n  stray: 2\n", "unexpected indent under scalar"),
        ("a:\n  - 1\n  b: 2\n", "mapping key inside a list"),
        ("a:\n  -\n", "nested list blocks"),
        ("a:\n  - k: v\n", "mappings inside lists"),
        ("- just\n- a list\n", "top level must be a mapping"),
    ])
    def test_rejections_carry_line_numbers(self, text, fragment):
        with pytest.raises(YamliteError, match=fragment) as err:
            loads(text)
        assert err.value.line >= 1

    def test_dumps_round_trip(self):
        doc = {
            "name": "x",
            "flag": True,
            "nothing": None,
            "nested": {"sizes": [4, 8], "ratio": 0.5},
            "text": "needs quoting: yes",
        }
        assert loads(dumps(doc)) == doc


# ----------------------------------------------------------------------
# schema: dotted paths, cross-section rules, round trips
# ----------------------------------------------------------------------

def minimal(**overrides) -> dict:
    data = {"name": "probe", "dataset": "ppi", "scale": "tiny"}
    data.update(overrides)
    return data


class TestSchemaRejections:
    @pytest.mark.parametrize("data, path", [
        (minimal(topology={"replica": 2}), "topology.replica"),
        (minimal(workload={"querys": 5}), "workload.querys"),
        (minimal(engine={"wokers": 4}), "engine.wokers"),
        (minimal(faults={"chaos_seed": 7}), "faults.chaos_seed"),
        (minimal(persistence={"stored": True}), "persistence.stored"),
        (minimal(expect={"answer_digest": "aa"}), "expect.answer_digest"),
        (minimal(unknown_top=1), "unknown_top"),
    ])
    def test_unknown_keys_fail_with_full_dotted_path(self, data, path):
        with pytest.raises(ScenarioConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.path == path
        assert "unknown key" in str(err.value)

    @pytest.mark.parametrize("data, path, fragment", [
        (minimal(name="Bad Name"), "name", "malformed"),
        (minimal(dataset="nope"), "dataset", "one of"),
        (minimal(workload={"queries": 0}), "workload.queries", ">= 1"),
        (minimal(workload={"queries": True}), "workload.queries",
         "integer"),
        (minimal(workload={"sizes": []}), "workload.sizes", "empty"),
        (minimal(workload={"sizes": [4, 0]}), "workload.sizes[1]",
         ">= 1"),
        (minimal(workload={"repeat_fraction": 1.5}),
         "workload.repeat_fraction", "< 1.0"),
        (minimal(engine={"rewritings": []}), "engine.rewritings",
         "empty"),
        (minimal(topology={"assignment": "roulette"}),
         "topology.assignment", "one of"),
        (minimal(faults={"store_corruption": ["rust"]}),
         "faults.store_corruption[0]", "one of"),
        (minimal(expect={"answers_digest": "xyz"}),
         "expect.answers_digest", "malformed"),
        (minimal(expect={"lost": -1}), "expect.lost", ">= 0"),
        (minimal(engine={"algorithms": ["GQL", "NOPE"]}),
         "engine.algorithms[1]", "unknown algorithm 'NOPE'; known: GQL"),
        (minimal(engine={"rewritings": ["Orig", "RNDx"]}),
         "engine.rewritings[1]", "unknown rewriting 'RNDx'; known: DND"),
        ({"name": "probe"}, "dataset", "required"),
    ])
    def test_bad_values_fail_with_dotted_path(self, data, path, fragment):
        with pytest.raises(ScenarioConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.path == path
        assert fragment in str(err.value)

    @pytest.mark.parametrize("data, path", [
        (minimal(faults={"chaos": True}), "faults.chaos"),
        (minimal(faults={"store_corruption": ["bit_flip"]}),
         "faults.store_corruption"),
        (minimal(topology={"rebalance": True}), "topology.rebalance"),
        (minimal(topology={"rebalance_every": 5}),
         "topology.rebalance_every"),
        (minimal(persistence={"regrow": True}), "persistence.regrow"),
        (minimal(engine={"workers": 1}), "engine.workers"),
        (minimal(expect={"answers_match": ["probe"]}), "expect"),
        (minimal(
            workload={"decision_only": True},
            expect={"answers_match": ["other"]},
        ), "expect.answers_match"),
        (minimal(dataset="yeast", mutations={"count": 3}),
         "mutations.count"),
        (minimal(mutations={"journal": True}), "mutations.journal"),
        (minimal(mutations={"count": 3, "crash_replay": True}),
         "mutations.crash_replay"),
        (minimal(mutations={
            "count": 3, "journal": True,
            "corrupt": ["journal_bit_flip"],
        }), "mutations.corrupt"),
        (minimal(mutations={"count": 3}, persistence={"regrow": True}),
         "persistence.regrow"),
        (minimal(mutations={"count": 3}, expect={"replay_match": True}),
         "expect"),
        (minimal(
            mutations={
                "count": 3, "journal": True, "crash_replay": True,
                "corrupt": ["journal_torn_tail"],
            },
            expect={"replay_match": True},
        ), "expect.replay_match"),
        (minimal(expect={"mutations_applied": 3}),
         "expect.mutations_applied"),
        (minimal(
            mutations={"count": 3, "verify_oracle": False},
            expect={"oracle_mismatches": 0},
        ), "expect.oracle_mismatches"),
    ])
    def test_cross_section_rules(self, data, path):
        with pytest.raises(ScenarioConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.path == path

    def test_store_corruption_taxonomy_matches_injector(self):
        from repro.service.faults import StoreFaultInjector

        assert set(STORE_CORRUPTIONS) <= set(StoreFaultInjector.CORRUPTIONS)

    def test_journal_corruption_taxonomy_matches_injector(self):
        from repro.scenarios.config import JOURNAL_CORRUPTIONS
        from repro.service.faults import StoreFaultInjector

        assert set(JOURNAL_CORRUPTIONS) <= set(
            StoreFaultInjector.JOURNAL_CORRUPTIONS
        )


class TestRoundTrip:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_committed_configs_round_trip(self, name):
        cfg = load_scenario_dir(SCENARIO_DIR)[name]
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        # and through the YAML emitter too
        assert ScenarioConfig.from_dict(loads(dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("seed", range(10))
    def test_fuzz_configs_round_trip(self, seed):
        cfg = random_scenario(seed)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_fully_populated(self):
        data = ScenarioConfig.from_dict(minimal()).to_dict()
        assert data["workload"]["queries"] == 30
        assert data["engine"]["rewritings"] == ["Orig", "DND"]
        assert data["topology"]["routing"] is True
        assert data["persistence"] == {"store": False, "regrow": False}
        # optional exact counts are dropped when unasserted
        assert "lost" not in data["expect"]

    def test_load_rejects_duplicate_names(self, tmp_path):
        for fname in ("a.yaml", "b.yaml"):
            (tmp_path / fname).write_text(
                "name: clone\ndataset: ppi\nscale: tiny\n"
            )
        with pytest.raises(ScenarioConfigError, match="duplicate"):
            load_scenario_dir(tmp_path)

    def test_load_rejects_dangling_sibling(self, tmp_path):
        (tmp_path / "a.yaml").write_text(
            "name: lonely\ndataset: ppi\nscale: tiny\n"
            "expect:\n  answers_match: [ghost]\n"
        )
        with pytest.raises(ScenarioConfigError, match="ghost"):
            load_scenario_dir(tmp_path)

    def test_file_error_carries_path_and_line(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [broken\n")
        with pytest.raises(ScenarioConfigError) as err:
            load_scenario_file(bad)
        assert err.value.path == f"{bad}:1"


# ----------------------------------------------------------------------
# expect evaluation (synthetic results, no service runs)
# ----------------------------------------------------------------------

def result(name="probe", **overrides) -> ScenarioResult:
    base = dict(
        name=name, answers_digest="aa" * 8, decisions_digest="bb" * 8,
        results_digest="cc" * 8, completed=4, killed=0, lost=0,
        degraded=0, injected=0, retries=0, rerouted=0, migrations=0,
        rebalances=0, regrown=0, fanout_waste=100, cache_hits=0,
        restores=0, rebuilds=0, corrupt_detected=0, quarantined=0,
        virtual_steps=64, per_shard_work=[], latency={"p95": 10},
        stats_digest="dd" * 8,
    )
    base.update(overrides)
    return ScenarioResult(**base)


class TestEvaluateExpect:
    def config(self, **expect) -> ScenarioConfig:
        return ScenarioConfig.from_dict(minimal(expect=expect))

    def test_clean_block_passes(self):
        cfg = self.config(lost=0, answers_digest="aa" * 8)
        assert evaluate_expect(cfg, result(), {}) == []

    def test_digest_mismatch(self):
        cfg = self.config(answers_digest="ee" * 8)
        fails = evaluate_expect(cfg, result(), {})
        assert len(fails) == 1
        assert "expect.answers_digest" in fails[0]

    def test_exact_counts_and_floors(self):
        cfg = self.config(lost=0, killed=0, rerouted_min=2, corrupt_min=1)
        fails = evaluate_expect(
            cfg, result(lost=1, rerouted=1, corrupt_detected=0), {}
        )
        assert [f.split(": ")[1] for f in fails] == [
            "expect.lost", "expect.rerouted_min", "expect.corrupt_min",
        ]

    def test_sibling_comparisons(self):
        cfg = ScenarioConfig.from_dict(minimal(expect={
            "answers_match": ["other"],
            "waste_below": "other",
            "p95_within": "other",
        }))
        siblings = {"other": result("other", fanout_waste=200)}
        assert evaluate_expect(cfg, result(), siblings) == []
        worse = result(
            answers_digest="ee" * 8, fanout_waste=300,
            latency={"p95": 99},
        )
        fails = evaluate_expect(cfg, worse, siblings)
        assert len(fails) == 3

    def test_missing_sibling_is_a_failure(self):
        cfg = ScenarioConfig.from_dict(
            minimal(expect={"answers_match": ["ghost"]})
        )
        fails = evaluate_expect(cfg, result(), {})
        assert "ghost" in fails[0] and "not run" in fails[0]


# ----------------------------------------------------------------------
# the committed matrix (runs every scenario once, in-process)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def matrix():
    """Run every committed scenario exactly once for the whole session
    — the same sweep ``repro scenario verify scenarios`` performs."""
    configs = load_scenario_dir(SCENARIO_DIR)
    results, failures = verify_scenarios(configs)
    return configs, results, failures


class TestScenarioMatrix:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_expect_block_holds(self, matrix, name):
        configs, results, _ = matrix
        fails = evaluate_expect(configs[name], results[name], results)
        assert fails == [], "\n".join(fails)

    def test_whole_matrix_conforms(self, matrix):
        _, results, failures = matrix
        assert failures == []
        assert sorted(results) == SCENARIO_NAMES

    def test_layout_invariance_family_shares_one_digest(self, matrix):
        # the metamorphic core: every full-answer ppi scenario, whatever
        # its topology/fault/store axis, lands on the anchor digest
        configs, results, _ = matrix
        digests = {
            results[n].answers_digest
            for n, cfg in configs.items()
            if cfg.dataset == "ppi" and not cfg.workload.decision_only
        }
        assert digests == {results["baseline-single"].answers_digest}

    def test_run_with_siblings_pulls_transitive_closure(self, matrix):
        configs, _, _ = matrix
        results = run_with_siblings(configs, ["store-corrupt-bitflip"])
        # bitflip -> store-coldboot -> replicated-healthy -> baseline
        assert sorted(results) == [
            "baseline-single", "replicated-healthy", "store-coldboot",
            "store-corrupt-bitflip",
        ]

    def test_run_with_siblings_rejects_unknown_target(self, matrix):
        configs, _, _ = matrix
        with pytest.raises(ScenarioError, match="ghost"):
            run_with_siblings(configs, ["ghost"])

    def test_unbuildable_scenario_raises_scenario_error(self):
        # a config that loads is a config that runs: variant names are
        # resolved by the schema, so the unknown rewriting never
        # reaches the runner (it used to die mid-run)
        with pytest.raises(ScenarioConfigError) as err:
            ScenarioConfig.from_dict(minimal(
                engine={"rewritings": ["Orig", "NoSuchRewriting"]},
            ))
        assert err.value.path == "engine.rewritings[1]"
        # the seeded-random family is a form, not a registry entry
        ScenarioConfig.from_dict(
            minimal(engine={"rewritings": ["Orig", "RND3"]})
        )


def test_mutated_scenario_honours_the_rebalance_cadence(monkeypatch):
    """``topology.rebalance_every`` means the same thing with and
    without a ``mutations:`` stream: the loop drains and consults the
    rebalancer every that-many completions.  (The update stream used to
    run through a second loop that dropped the cadence, so the
    rebalancer was reached only after each applied batch — here, only
    once the query streams had run dry.)"""
    from repro.scenarios import ScenarioRunner
    from repro.service.rebalance import Rebalancer

    queries, every = 12, 3
    config = ScenarioConfig.from_dict(minimal(
        workload={"queries": queries, "tenants": 2, "sizes": [4, 6]},
        topology={
            "shards": 2, "rebalance": True, "rebalance_every": every,
        },
        # never due by completion count: batches land once streams dry
        mutations={"count": 2, "batch": 2, "every": 100},
    ))
    consulted_at = []
    maybe_rebalance = Rebalancer.maybe_rebalance

    def spy(self):
        consulted_at.append(self.service.completed_count.value)
        return maybe_rebalance(self)

    monkeypatch.setattr(Rebalancer, "maybe_rebalance", spy)
    result = ScenarioRunner().run(config)
    assert result.completed == queries and result.mutations_applied == 2
    mid_stream = [done for done in consulted_at if done < queries]
    assert mid_stream, consulted_at
    assert mid_stream[0] >= every
    assert all(
        later - earlier >= every
        for earlier, later in zip(mid_stream, mid_stream[1:])
    )
