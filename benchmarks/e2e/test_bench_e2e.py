"""Self-tests of the wall-clock ledger, at ``--smoke`` sizes.

They assert no time: a slow box must not fail them.  What they hold:
every metric named in ``BENCHMARK.json`` comes out of every workload as
a finite number with a unit, exact counts repeat for one seed and move
with another, the span file is a well-formed tree, each correctness
check can fail, and ``compare`` reaches each of its verdicts.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import pytest

from . import run as bench  # first: puts the program on sys.path
from . import checks, ledger, workloads as wl
from .catalogue import (
    BOUND, CONTRACT_BOUNDS, CONTRACT_END_TO_END, CONTRACT_LAYERS,
    CONTRACT_WORKLOADS, END_TO_END, NOT_APPLICABLE, PER_LAYER, WORKLOADS,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced() -> dict:
    """One traced smoke run per workload (each also holds the
    end-to-end values of its untraced pass)."""
    return {
        name: bench.run_workload(name, 42, 10, True, smoke=True)
        for name in wl.SPECS
    }


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == wl.RUN_SECONDS
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["bound"] == CONTRACT_BOUNDS[m["name"]] <= 0.25
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    # set-up has the largest bound; ``compare`` keeps one bound for all
    assert setup[0]["bound"] == max(CONTRACT_BOUNDS.values())
    assert BOUND == 0.10


def test_manifest_matches_the_catalogue(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(
        CONTRACT_WORKLOADS
    )
    assert [w["why"] for w in manifest["workloads"]] == [
        wl.SPECS[name].why for name in CONTRACT_WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]
    ] == [row[:3] for row in CONTRACT_END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [row[:3] for row in CONTRACT_LAYERS]
    assert tuple(NOT_APPLICABLE) == tuple(wl.SPECS) == WORKLOADS


def test_every_metric_on_every_workload(manifest, traced):
    for name, doc in traced.items():
        assert doc["correct"] and doc["failed"] == 0, name
        assert doc["attempted"] >= 1
        # every end-to-end metric on every workload it lists
        values = doc["detail"]["end_to_end"]
        assert list(values) == [
            row[0] for row in END_TO_END if name in row[3]
        ]
        for metric, value in values.items():
            assert math.isfinite(value) and value > 0, (name, metric)
        # the contract line: every listed layer metric, a real number
        assert list(doc["metrics"]) == [
            m["name"] for m in manifest["per_layer"]
        ]
        for m in manifest["per_layer"]:
            got = doc["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), (name, m["name"])
        # the full table: n/a exactly where the layer does not run
        table = doc["detail"]["layers"]
        assert list(table) == [row[0] for row in PER_LAYER]
        for metric, value in table.items():
            if metric in NOT_APPLICABLE[name]:
                assert value is None, (name, metric)
            else:
                assert math.isfinite(value), (name, metric)
        assert doc["metrics"]["bench.trace_overhead_ratio"]["value"] > 0


def test_the_command_prints_the_contract_line(manifest):
    done = subprocess.run(
        manifest["command"] + [
            "--workload", "nfv-race", "--seed", "3", "--seconds", "10",
            "--trace", "0", "--smoke",
        ],
        cwd=bench.ROOT, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert list(doc["metrics"]) == [
        m["name"] for m in manifest["end_to_end"]
    ]
    for m in manifest["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]


def test_exact_counts_repeat_per_seed_and_move_with_it(traced):
    # each traced run served its inputs twice on fresh services
    for name, doc in traced.items():
        assert doc["detail"]["passes_agree"], name
    first = traced["ftv-sharded"]["detail"]
    other = bench.run_workload("ftv-sharded", 7, 10, False, smoke=True)
    assert other["correct"] and other["failed"] == 0
    # another arrival order and another check population
    assert other["detail"]["answers_digest"] != first["answers_digest"]
    assert other["detail"]["counts"] != first["counts"]
    census = "indexing.census_paths"
    assert (
        traced["ftv-sharded"]["detail"]["layers"][census]
        == traced["door-hot"]["detail"]["layers"][census]
    )


def test_span_file_is_a_tree():
    # written by the ``traced`` fixture's runs
    path = os.path.join(bench.OUT, "trace-update-stream.jsonl")
    if not os.path.exists(path):
        bench.run_workload("update-stream", 42, 10, True, smoke=True)
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    names = {s["name"] for s in spans}
    assert {"window", "service.submit", "service.pump",
            "service.add_graph", "service.checkpoint_store"} <= names
    for s in spans:
        assert set(s) == {"id", "workload", "name", "parent", "start", "end"}
        assert s["workload"] == "update-stream" and s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"]
            assert s["end"] <= parent["end"]


def test_self_time_is_span_minus_children():
    from .spans import SpanLog

    log = SpanLog("t")
    root = log.add("root", None, 0.0, 10.0)
    log.add("child", root, 1.0, 4.0)
    log.add("child", root, 3.0, 6.0)  # overlap counted once
    totals = log.totals()
    assert totals["root"]["self_s"] == pytest.approx(5.0)
    assert totals["child"]["total_s"] == pytest.approx(6.0)
    assert log.totals(under="root")["child"]["calls"] == 2


# ----------------------------------------------------------------------
# each correctness check can fail
# ----------------------------------------------------------------------

def _smoke_window(name: str):
    spec = wl.SPECS[name]
    sizes = spec.sized(10, True)
    inputs = wl.make_inputs(spec, sizes, 42)
    os.makedirs(bench.OUT, exist_ok=True)
    harness = wl.Harness(spec, sizes, inputs, bench.OUT)
    service, _, store = harness.ready()
    window = wl.closed_loop(
        service, spec, inputs, None,
        mutations=inputs.mutations, checkpoint_dir=store,
    )
    return spec, sizes, inputs, window


def test_ftv_audit_sees_a_dropped_matching_id():
    spec, _sizes, _inputs, window = _smoke_window("ftv-sharded")
    entry = window.service.catalog.get(spec.dataset)
    live = {g: entry.graphs[g] for g in entry.live_graph_ids()}
    rows = [row[:2] for row in window.served]
    audit = checks.audit_ftv(rows, live)
    assert audit.wrong == 0 and audit.undecided == 0
    tampered = [
        (q, (got[0], got[1] - 1, got[2][1:]) if got[2] else got)
        for q, got in rows
    ]
    assert tampered != rows
    assert checks.audit_ftv(tampered, live).wrong > 0


def test_an_undecided_pair_counts_as_wrong(monkeypatch):
    spec, _sizes, _inputs, window = _smoke_window("ftv-sharded")
    entry = window.service.catalog.get(spec.dataset)
    live = {g: entry.graphs[g] for g in entry.live_graph_ids()}
    monkeypatch.setattr(checks, "PAIR_STEPS", 1)
    audit = checks.audit_ftv([row[:2] for row in window.served], live)
    assert audit.undecided > 0 and audit.wrong == audit.sampled


def test_budget_of_one_kills_every_query():
    spec = dataclasses.replace(wl.SPECS["nfv-race"], budget=1)
    doc = bench.run_workload("nfv-race", 42, 10, False, smoke=True, spec=spec)
    # failed_ratio 1.0; ``main`` exits non-zero on any failed operation
    assert doc["failed"] == doc["attempted"]


def test_a_lap_that_answers_differently_is_a_failure(monkeypatch):
    lap = wl.Harness.lap
    made = []

    def tampered(self):
        window = lap(self)
        if not made:  # the warm-up lap drops one answer's matching ids
            query, got, wait = window.served[0]
            window.served[0] = (query, (not got[0], 0, ()), wait)
        made.append(window)
        return window

    monkeypatch.setattr(wl.Harness, "lap", tampered)
    doc = bench.run_workload("ftv-sharded", 42, 10, False, smoke=True)
    assert len(made) == 2 and doc["failed"] == 1 and not doc["correct"]
    assert not doc["detail"]["passes_agree"]


def test_a_truncated_journal_is_reported_as_lost_mutations():
    import shutil

    spec, sizes, inputs, window = _smoke_window("update-stream")
    try:
        assert window.mutation_acks and not window.mutations_refused
        journal = os.path.join(window.store_dir, "JOURNAL.log")
        assert os.path.getsize(journal) > 0
        audit, _replay_s = checks.audit_recovery(
            window.service, spec, sizes, inputs, window.store_dir, 42
        )
        assert audit.wrong == 0
        with open(journal, "wb"):
            pass  # the crash ate every record after the checkpoint
        audit, _replay_s = checks.audit_recovery(
            window.service, spec, sizes, inputs, window.store_dir, 42
        )
        assert audit.wrong > 0
    finally:
        shutil.rmtree(window.store_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _ledger(traced) -> dict:
    return {"workloads": {
        name: ledger.aggregate([copy.deepcopy(doc)] * 3, None)
        for name, doc in traced.items()
    }}


def test_compare_verdicts(traced, tmp_path):
    a = _ledger(traced)
    rows = ledger.compare(a, a)
    assert {r["verdict"] for r in rows} == {"ok"}
    assert {(r["workload"], r["metric"]) for r in rows} == {
        (w, m) for w in WORKLOADS
        for m in [row[0] for row in END_TO_END if w in row[3]]
        + ["failed_ratio"]
    }
    with pytest.raises(KeyError):  # a ledger holds every workload
        ledger.compare(a, {"workloads": {}})

    def verdicts(b: dict) -> dict:
        return {
            r["metric"]: r["verdict"] for r in ledger.compare(a, b)
            if r["workload"] == "nfv-race"
        }

    slow = copy.deepcopy(a)
    m = slow["workloads"]["nfv-race"]["end_to_end"]["queries_per_s"]
    for key in ("median", "min", "max"):
        m[key] *= 0.88  # worse by 12 %: just past the bound
    assert verdicts(slow)["queries_per_s"] == "regressed"
    assert verdicts(slow)["setup_s"] == "ok"

    noisy = copy.deepcopy(a)
    m = noisy["workloads"]["nfv-race"]["end_to_end"]["query_ms_p50"]
    m["min"], m["max"] = m["median"] * 0.5, m["median"] * 1.5
    assert verdicts(noisy)["query_ms_p50"] == "unresolved"

    failing = copy.deepcopy(a)
    failing["workloads"]["nfv-race"]["failed_ratio"] = 0.01
    assert verdicts(failing)["failed_ratio"] == "regressed"

    for name, doc in (("a", a), ("slow", slow)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "benchmarks.e2e", "compare"]
    same = subprocess.run(
        cmd + [str(tmp_path / "a.json")] * 2, cwd=bench.ROOT, env=env,
        capture_output=True, text=True,
    )
    assert same.returncode == 0, same.stderr
    worse = subprocess.run(
        cmd + [str(tmp_path / "a.json"), str(tmp_path / "slow.json")],
        cwd=bench.ROOT, env=env, capture_output=True, text=True,
    )
    assert worse.returncode == 1 and "regressed" in worse.stdout
    assert "ratio base" in worse.stdout
