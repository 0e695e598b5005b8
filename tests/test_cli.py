"""Tests for the command-line interface."""

import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def repro_env():
    return dict(
        os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1"
    )


def repro_process(*argv):
    """``python -m repro ARGV`` as a real process: exit code, stdout,
    stderr — the contract in-process ``main()`` calls cannot pin."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=repro_env(), cwd=REPO,
        timeout=300,
    )


class TestDatasets:
    def test_summaries(self, capsys):
        code, out = run_cli(capsys, "datasets", "--scale", "tiny")
        assert code == 0
        assert "yeast" in out
        assert "ppi" in out
        assert "Avg degree" in out


class TestWorkload:
    def test_table_output(self, capsys):
        code, out = run_cli(
            capsys, "workload", "--dataset", "yeast",
            "--scale", "tiny", "--size", "5", "--count", "3",
        )
        assert code == 0
        assert out.count("q0") == 3

    def test_gfu_export(self, capsys, tmp_path):
        path = tmp_path / "queries.gfu"
        code, out = run_cli(
            capsys, "workload", "--dataset", "yeast",
            "--scale", "tiny", "--size", "4", "--count", "2",
            "--out", str(path),
        )
        assert code == 0
        from repro.graphs import read_gfu

        queries = read_gfu(path)
        assert len(queries) == 2
        assert all(q.size == 4 for q in queries)

    def test_ftv_dataset_source(self, capsys):
        code, out = run_cli(
            capsys, "workload", "--dataset", "ppi",
            "--scale", "tiny", "--size", "4", "--count", "2",
        )
        assert code == 0


class TestMatch:
    def test_match_reports_outcome(self, capsys):
        code, out = run_cli(
            capsys, "match", "--dataset", "yeast", "--scale", "tiny",
            "--size", "5", "--algorithm", "GQL",
        )
        assert code == 0
        assert "embeddings in" in out
        assert "completed" in out or "killed" in out


class TestRace:
    def test_race_prints_winner(self, capsys):
        code, out = run_cli(
            capsys, "race", "--dataset", "yeast", "--scale", "tiny",
            "--size", "5", "--algorithms", "GQL,SPA",
            "--rewritings", "Orig,ILF",
        )
        assert code == 0
        assert "<- winner" in out
        assert "race time" in out

    def test_race_rejects_ftv_dataset(self):
        with pytest.raises(SystemExit):
            main([
                "race", "--dataset", "ppi", "--scale", "tiny",
            ])


class TestExperiment:
    @pytest.mark.parametrize("name", ["fig2", "fig8", "fig13"])
    def test_nfv_experiments(self, capsys, name):
        code, out = run_cli(
            capsys, "experiment", "--name", name, "--scale", "tiny",
        )
        assert code == 0
        assert "yeast" in out

    @pytest.mark.parametrize("name", ["fig1", "fig7", "fig12"])
    def test_ftv_experiments(self, capsys, name):
        code, out = run_cli(
            capsys, "experiment", "--name", name, "--scale", "tiny",
        )
        assert code == 0
        assert "ppi" in out

    def test_dataset_family_mismatch(self):
        with pytest.raises(SystemExit):
            main([
                "experiment", "--name", "fig2", "--dataset", "ppi",
                "--scale", "tiny",
            ])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "--name", "fig99"]
            )


class TestAnalyze:
    def test_analyze_prints_overlap_and_diagnoses(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "--dataset", "yeast", "--scale", "tiny",
        )
        assert code == 0
        assert "hard-set overlap" in out
        assert "winner attribution" in out
        assert "worst unit for" in out

    def test_analyze_rejects_ftv(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--dataset", "ppi"])


class TestServe:
    SERVE_ARGS = (
        "--dataset", "yeast", "--scale", "tiny",
        "--queries", "12", "--tenants", "2", "--budget", "60000",
    )

    def test_serve_summary(self, capsys):
        code, out = run_cli(capsys, "serve", *self.SERVE_ARGS)
        assert code == 0
        assert "tenant0" in out and "tenant1" in out
        assert "latency (steps)" in out
        assert "result cache" in out
        assert "results digest" in out

    def test_serve_deterministic(self, capsys):
        digests = set()
        for _ in range(2):
            _, out = run_cli(capsys, "serve", *self.SERVE_ARGS)
            digests.add(
                [ln for ln in out.splitlines() if "digest" in ln][-1]
            )
        assert len(digests) == 1

    def test_serve_verbose(self, capsys):
        code, out = run_cli(
            capsys, "serve", *self.SERVE_ARGS, "--verbose"
        )
        assert code == 0
        assert " in " in out  # per-query lines present

    def test_serve_validates_tenant_count(self, capsys):
        with pytest.raises(SystemExit, match="tenants"):
            main([
                "serve", "--dataset", "yeast", "--scale", "tiny",
                "--queries", "4", "--tenants", "0",
            ])

    def test_serve_clamps_tenants_to_queries(self, capsys):
        code, out = run_cli(
            capsys, "serve", "--dataset", "yeast", "--scale", "tiny",
            "--queries", "2", "--tenants", "5", "--budget", "60000",
        )
        assert code == 0
        assert "2 queries" in out
        assert "tenant2" not in out

    def test_serve_validates_worker_pool(self, capsys):
        with pytest.raises(SystemExit, match="workers"):
            main([
                "serve", "--dataset", "yeast", "--scale", "tiny",
                "--queries", "4", "--workers", "0",
            ])
        # a race wider than the pool is a config error, not 100% rejects
        with pytest.raises(SystemExit, match="variants wide"):
            main([
                "serve", "--dataset", "yeast", "--scale", "tiny",
                "--queries", "4", "--workers", "2",
            ])

    def test_serve_validates_concurrency(self, capsys):
        with pytest.raises(SystemExit, match="concurrency"):
            main([
                "serve", "--dataset", "yeast", "--scale", "tiny",
                "--queries", "4", "--concurrency", "0",
            ])


class TestServeProcess:
    """``repro serve`` / ``repro warm`` as processes: diagnostics,
    the socket front door, and the store round trip."""

    PPI = ("--dataset", "ppi", "--scale", "tiny")

    @pytest.mark.parametrize("flags, field", [
        (("--budget", "0"), "workload.budget"),
        (("--max-in-flight", "0"), "workload.max_in_flight"),
        (("--repeat-fraction", "2"), "workload.repeat_fraction"),
        (("--sizes", "4,x"), "workload.sizes"),
        (("--algorithms", "GQL,NOPE"), "engine.algorithms[1]"),
        (("--rewritings", "Orig,NOPE"), "engine.rewritings[1]"),
        (("--regrow", "--shards", "1"), "persistence.regrow"),
    ])
    def test_bad_flag_is_one_line_naming_the_field(self, flags, field):
        proc = repro_process(
            "serve", "--dataset", "yeast", "--scale", "tiny",
            "--queries", "4", *flags,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        diagnostic = proc.stderr.strip().splitlines()
        assert len(diagnostic) == 1
        assert diagnostic[0].startswith(f"repro serve: {field}: ")

    def test_warm_checks_algorithm_names(self, tmp_path):
        proc = repro_process(
            "warm", "--store", str(tmp_path / "store"),
            "--dataset", "yeast", "--scale", "tiny",
            "--algorithms", "GQL,NOPE",
        )
        assert proc.returncode != 0
        assert proc.stderr.strip().splitlines() == [
            "repro warm: engine.algorithms[1]: unknown algorithm "
            "'NOPE'; known: GQL, QSI, REF, SPA, TUR, ULL, VF2"
        ]
        assert not (tmp_path / "store").exists()

    def test_listen_serves_what_the_spec_builds(self):
        """The socket front door of ``serve --listen`` answers exactly
        as an in-process service built from the same flags, and drains
        cleanly on SIGINT."""
        from repro.cli import _service_spec
        from repro.obs.client import ObsClient
        from repro.workload import generate_workload

        flags = ["serve", *self.PPI, "--shards", "2", "--replicas", "2"]
        spec = _service_spec(build_parser().parse_args(flags))
        local = spec.build_service()
        queries = [
            q.graph for q in generate_workload(
                local.catalog.get("ppi").graphs, 5, 5, seed=9
            )
        ]
        expected = []
        for graph in queries:
            ticket = local.submit(
                "ppi", graph, "alice", spec.query_options()
            )
            local.run_until_idle()
            r = ticket.result
            expected.append((
                r.found, r.steps, r.winner_label, ticket.latency,
                sorted(r.matching_ids),
            ))

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *flags,
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=repro_env(), cwd=REPO,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no output within 60 s of starting the server"
            bound = re.search(
                r"listening on ([\d.]+):(\d+)", proc.stdout.readline()
            )
            assert bound, proc.stderr.read()
            client = ObsClient(bound.group(1), int(bound.group(2)))
            served = []
            for graph in queries:
                status, payload, _ = client.submit(
                    "ppi", graph, tenant="alice",
                    options={"rewritings": list(spec.engine.rewritings)},
                )
                assert status == 200, payload
                r = payload["result"]
                served.append((
                    r["found"], r["steps"], r["winner"],
                    payload["latency_steps"], sorted(r["matching_ids"]),
                ))
            assert served == expected
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=15)
            finally:
                proc.kill()
                proc.stdout.close()
                proc.stderr.close()
        assert code == 0

    def test_warm_then_serve_from_store(self, tmp_path):
        store = str(tmp_path / "store")
        warm = repro_process(
            "warm", "--store", store, *self.PPI, "--shards", "2",
            "--verify",
        )
        assert warm.returncode == 0, warm.stderr
        assert ", 0 bad" in warm.stdout
        serve = ("serve", *self.PPI, "--shards", "2")
        cold = repro_process(*serve, "--store", store)
        fresh = repro_process(*serve)
        assert cold.returncode == fresh.returncode == 0, cold.stderr
        digest = re.compile(r"results digest (\w+)")
        assert (
            digest.search(cold.stdout).group(1)
            == digest.search(fresh.stdout).group(1)
        )
        line = re.search(
            r"store: (\d+) restores, (\d+) rebuilds", cold.stdout
        )
        assert int(line.group(1)) > 0 and line.group(2) == "0"
        assert "store:" not in fresh.stdout

    def test_chaos_regrow_from_store(self, tmp_path):
        store = str(tmp_path / "store")
        layout = (*self.PPI, "--shards", "2", "--replicas", "2")
        warm = repro_process("warm", "--store", store, *layout)
        assert warm.returncode == 0, warm.stderr
        proc = repro_process(
            "serve", *layout, "--chaos", "--regrow", "--store", store,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"chaos: .* 0 lost", proc.stdout)
        line = re.search(
            r"regrew (\d+) replica\(s\), (\d+) from store", proc.stdout
        )
        assert int(line.group(2)) >= 1
        assert line.group(1) == line.group(2)


QUICK_SCENARIO = (
    "name: quick\n"
    "dataset: ppi\n"
    "scale: tiny\n"
    "workload:\n"
    "  queries: 4\n"
    "  tenants: 1\n"
    "  budget: 60000\n"
)


class TestScenario:
    """The ``repro scenario`` surface.

    Error paths run as real subprocesses: the contract under test is
    the *process* one — non-zero exit codes plus a one-line
    diagnostic on stderr — which in-process ``main()`` calls cannot
    fully pin down.
    """

    def scenario_cli(self, *argv):
        return repro_process("scenario", *argv)

    def test_list_committed_matrix(self, capsys):
        code, out = run_cli(
            capsys, "scenario", "list", str(REPO / "scenarios")
        )
        assert code == 0
        assert "baseline-single" in out
        assert "replicated-chaos" in out

    def test_run_evaluates_sibling_expects(self, capsys):
        code, out = run_cli(
            capsys, "scenario", "run", "shard2-unrouted",
            "--dir", str(REPO / "scenarios"),
        )
        assert code == 0
        # the sibling named by answers_match runs too
        assert "baseline-single" in out
        assert "0 expect failure(s)" in out

    def test_missing_directory_exits_2(self):
        proc = self.scenario_cli("verify", "/no/such/dir")
        assert proc.returncode == 2
        diagnostic = proc.stderr.strip().splitlines()
        assert len(diagnostic) == 1
        assert diagnostic[0].startswith("scenario: ")
        assert "not a scenario directory" in diagnostic[0]

    def test_malformed_yaml_exits_2(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("name: [broken\n")
        proc = self.scenario_cli("verify", str(tmp_path))
        assert proc.returncode == 2
        diagnostic = proc.stderr.strip().splitlines()
        assert len(diagnostic) == 1
        assert "bad.yaml:1" in diagnostic[0]

    def test_unknown_key_exits_2_with_dotted_path(self, tmp_path):
        (tmp_path / "probe.yaml").write_text(
            QUICK_SCENARIO + "topology:\n  replica: 2\n"
        )
        proc = self.scenario_cli("verify", str(tmp_path))
        assert proc.returncode == 2
        assert "topology.replica: unknown key" in proc.stderr

    @pytest.mark.parametrize("action", ["list", "verify"])
    def test_unknown_rewriting_fails_at_load(self, tmp_path, action):
        # a config that loads is a config that runs: the name is
        # resolved by the schema, not mid-run by the engine
        (tmp_path / "probe.yaml").write_text(
            QUICK_SCENARIO + "engine:\n  rewritings: [Orig, NOPE]\n"
        )
        proc = self.scenario_cli(action, str(tmp_path))
        assert proc.returncode == 2
        diagnostic = proc.stderr.strip().splitlines()
        assert len(diagnostic) == 1
        assert "engine.rewritings[1]: unknown rewriting 'NOPE'" in (
            diagnostic[0]
        )
        assert "running" not in proc.stdout

    def test_failed_expect_exits_1(self, tmp_path):
        (tmp_path / "quick.yaml").write_text(
            QUICK_SCENARIO
            + "expect:\n  answers_digest: \"00000000000000aa\"\n"
        )
        proc = self.scenario_cli("verify", str(tmp_path))
        assert proc.returncode == 1
        fails = [
            ln for ln in proc.stderr.splitlines()
            if ln.startswith("FAIL ")
        ]
        assert len(fails) == 1
        assert "expect.answers_digest" in fails[0]
        assert "1 expect failure(s)" in proc.stdout

    def test_unknown_scenario_name_exits_2(self, tmp_path):
        (tmp_path / "quick.yaml").write_text(QUICK_SCENARIO)
        proc = self.scenario_cli(
            "run", "ghost", "--dir", str(tmp_path)
        )
        assert proc.returncode == 2
        assert "ghost" in proc.stderr
