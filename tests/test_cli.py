"""Tests for the command-line interface."""

import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.harness.figures import FIGURES

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
        from repro.graphs import dumps_gfu
        from repro.harness import build_nfv_graph
        from repro.workload import generate_workload

        queries = generate_workload(
            [build_nfv_graph("yeast", "tiny")], 2, 4, seed=42
        )
        assert path.read_text() == dumps_gfu([q.graph for q in queries])
        assert all(q.graph.size == 4 for q in queries)

    def test_ftv_dataset_source(self, capsys):
        code, out = run_cli(
            capsys, "workload", "--dataset", "ppi",
            "--scale", "tiny", "--size", "4", "--count", "2",
        )
        assert code == 0

    def test_a_reader_closing_early_ends_it_without_a_traceback(self):
        """``repro workload ... | head -1``: the table is larger than a
        pipe holds, so the write still pending when the reader closes
        meets a broken pipe, and the command exits 1 quietly."""
        env = repro_env()
        del env["PYTHONUNBUFFERED"]  # block-buffered, as in a shell pipe
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "workload", "--dataset", "ppi",
             "--scale", "tiny", "--size", "3", "--count", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=REPO, bufsize=0,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=300) == 1
        assert first.startswith(b"workload: 3000 x 3-edge queries")
        assert "Traceback" not in err and "BrokenPipe" not in err


class TestTail:
    def test_tail_caps_a_servers_retry_after_at_backoff_cap(
        self, capsys, monkeypatch
    ):
        """A 429 asking for an hour sleeps ``--backoff-cap`` seconds."""
        import time

        from repro.obs.client import ObsClient, WatchDisconnected

        def refuse(self, **kwargs):
            raise WatchDisconnected(
                "/watch returned 429", status=429, retry_after=3600.0
            )
            yield  # a generator, like the real watch

        slept = []
        monkeypatch.setattr(ObsClient, "watch", refuse)
        monkeypatch.setattr(time, "sleep", slept.append)
        code, out = run_cli(
            capsys, "tail", "127.0.0.1:9", "--max-reconnects", "2",
            "--backoff-cap", "2",
        )
        assert code == 1
        assert slept == [2.0, 2.0]
        assert "giving up" in out


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
    SUMMARY = re.compile(
        r"^(staged|full width) +race time (\d+) steps, work (\d+): (.*)$",
        re.M,
    )

    def summaries(self, out):
        """``{schedule: (race time, work, verdict)}`` of the two
        summary lines."""
        return {
            name: (int(steps), int(work), verdict)
            for name, steps, work, verdict in self.SUMMARY.findall(out)
        }

    def test_race_prints_winner(self, capsys):
        code, out = run_cli(
            capsys, "race", "--dataset", "yeast", "--scale", "tiny",
            "--size", "5", "--algorithms", "GQL,SPA",
            "--rewritings", "Orig,ILF",
        )
        assert code == 0
        assert "<- winner" in out
        assert set(self.summaries(out)) == {"staged", "full width"}

    def test_both_schedules_are_the_librarys_races(self, capsys):
        """The staged line is ``PsiNFV.race`` under the planner's
        schedule and the full-width line its full-width race."""
        from repro.harness import build_nfv_graph
        from repro.matching import Budget
        from repro.psi import PsiNFV, variants_from_spec
        from repro.service.planner import race_starts
        from repro.workload import generate_workload

        code, out = run_cli(
            capsys, "race", "--dataset", "yeast", "--scale", "tiny",
            "--size", "6", "--seed", "3", "--algorithms", "GQL,SPA,VF2",
            "--rewritings", "Orig,ILF",
        )
        assert code == 0
        graph = build_nfv_graph("yeast", "tiny")
        [query] = generate_workload([graph], 1, 6, seed=3)
        variants = variants_from_spec(("GQL", "SPA", "VF2"), ("Orig", "ILF"))
        psi = PsiNFV(graph)
        budget = Budget(max_steps=200_000)
        lines = self.summaries(out)
        for name, starts in (
            ("staged", race_starts(variants, 200_000)),
            ("full width", None),
        ):
            race = psi.race(
                query.graph, variants, budget=budget, count_only=True,
                max_embeddings=1000, starts=starts,
            ).race
            steps, work, verdict = lines[name]
            assert steps == race.steps
            assert verdict == f"{race.winner} wins, found={race.found}"
            if starts is not None:
                # the full-width line is replayed from solo costs, so
                # only the live staged race's work is this race's
                assert work == race.work_steps

    def test_a_killed_race_reads_killed(self, capsys):
        code, out = run_cli(
            capsys, "race", "--dataset", "yeast", "--scale", "tiny",
            "--budget", "100",
        )
        assert code == 0
        assert self.summaries(out) == {
            "staged": (100, 400, "killed"),
            "full width": (100, 400, "killed"),
        }
        assert "found" not in out

    def test_race_rejects_ftv_dataset(self):
        with pytest.raises(SystemExit):
            main([
                "race", "--dataset", "ppi", "--scale", "tiny",
            ])


class TestExperiment:
    @pytest.mark.parametrize("name", list(FIGURES))
    def test_every_figure(self, capsys, name):
        code, out = run_cli(
            capsys, "experiment", "--name", name, "--scale", "tiny",
        )
        assert code == 0
        # Table 10 spells ppi the paper's way, in capitals
        for dataset in FIGURES[name].default:
            assert dataset in out.lower()

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

    @pytest.mark.parametrize("argv, loads", [
        (("serve", "--help"), False),
        (("warm", "--help"), False),
        (("scenario", "list", "scenarios"), False),
        (("experiment", "--help"), True),  # lists the figure names
    ])
    def test_only_paper_commands_load_the_harness(self, argv, loads):
        """``-X importtime`` names every module a command imports: the
        serving commands build their parser and run without one
        ``repro.harness*`` module."""
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", *argv],
            capture_output=True, text=True, env=repro_env(), cwd=REPO,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        harness = [
            line for line in out.stderr.splitlines()
            if "repro.harness" in line
        ]
        assert bool(harness) is loads, harness


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
    """``repro serve`` / ``repro warm`` as processes: diagnostics
    (``repro race``'s too), the socket front door, and the store round
    trip."""

    PPI = ("--dataset", "ppi", "--scale", "tiny")

    @pytest.mark.parametrize("command, flags, field", [
        ("serve", ("--budget", "0"), "workload.budget"),
        ("serve", ("--max-in-flight", "0"), "workload.max_in_flight"),
        ("serve", ("--repeat-fraction", "2"), "workload.repeat_fraction"),
        ("serve", ("--sizes", "4,x"), "workload.sizes"),
        ("serve", ("--algorithms", "GQL,NOPE"), "engine.algorithms[1]"),
        ("serve", ("--rewritings", "Orig,NOPE"), "engine.rewritings[1]"),
        ("serve", ("--regrow", "--shards", "1"), "persistence.regrow"),
        ("race", ("--algorithms", "GQL,NOPE"), "options.algorithms[1]"),
        ("race", ("--rewritings", "XYZ"), "options.rewritings[0]"),
    ])
    def test_bad_flag_is_one_line_naming_the_field(
        self, command, flags, field
    ):
        queries = ("--queries", "4") if command == "serve" else ()
        proc = repro_process(
            command, "--dataset", "yeast", "--scale", "tiny",
            *queries, *flags,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        diagnostic = proc.stderr.strip().splitlines()
        assert len(diagnostic) == 1
        assert diagnostic[0].startswith(f"repro {command}: {field}: ")

    def test_warm_checks_algorithm_names(self, tmp_path):
        proc = repro_process(
            "warm", "--store", str(tmp_path / "store"),
            "--dataset", "yeast", "--scale", "tiny",
            "--algorithms", "GQL,NOPE",
        )
        assert proc.returncode != 0
        assert proc.stderr.strip().splitlines() == [
            "repro warm: engine.algorithms[1]: unknown algorithm "
            "'NOPE'; known: GQL, QSI, REF, SPA, TUR, VF2"
        ]
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("stop", ["SIGINT", "SIGTERM"])
    def test_listen_serves_what_the_spec_builds(self, stop):
        """The socket front door of ``serve --listen`` answers exactly
        as an in-process service built from the same flags, and drains
        cleanly on SIGINT or SIGTERM."""
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
            proc.send_signal(getattr(signal, stop))
            try:
                code = proc.wait(timeout=15)
            finally:
                proc.kill()
                proc.stdout.close()
                proc.stderr.close()
        assert code == 0

    def test_listen_on_a_busy_port_is_one_line(self):
        """An address the front door cannot bind ends the process with
        one line, not a traceback."""
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            proc = repro_process(
                "serve", *self.PPI, "--listen", f"127.0.0.1:{port}"
            )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.strip().splitlines()
        assert line.startswith("repro serve: --listen: ")
        assert str(port) in line

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
        serve = ("serve", *layout, "--chaos", "--regrow")
        proc = repro_process(*serve, "--store", store)
        storeless = repro_process(*serve)
        assert proc.returncode == storeless.returncode == 0, proc.stderr
        assert re.search(r"chaos: .* 0 lost", proc.stdout)
        line = re.search(
            r"regrew (\d+) replica\(s\), (\d+) from store", proc.stdout
        )
        assert int(line.group(1)) >= 1
        digest = re.compile(r"results digest (\w+)")
        assert (
            digest.search(proc.stdout).group(1)
            == digest.search(storeless.stdout).group(1)
        )


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
