"""Run one workload in this interpreter and print its metrics.

    python3 benchmarks/e2e/run.py --workload ftv-sharded --seed 42 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics ``BENCHMARK.json`` lists with ``--trace 0``, the
per-layer ones it lists with ``--trace 1``.  The line before it
(``# detail {...}``) carries what the ledger keeps: every end-to-end
metric the workload has, the full layer table, sample counts, exact
counts, audit sizes.  Exits non-zero when any operation failed or any
answer was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

_T0 = time.perf_counter()

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # set iteration order feeds the order of some internal work lists;
    # pin it so two runs of one seed do identical work (re-executed
    # before the program is imported, so the import is paid once)
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    raise SystemExit(f"benchmarks/e2e: no program to measure under {ROOT}/src")
# run as a script, nothing has put the program or this package on the
# path yet; under pytest both usually are already
for _path in (os.path.join(ROOT, "src"), os.path.dirname(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_t = time.perf_counter()
from repro.caching import prepare_cache  # noqa: E402

from e2e import checks, layers, workloads as wl  # noqa: E402
from e2e.catalogue import (  # noqa: E402
    CONTRACT_END_TO_END, CONTRACT_LAYERS, END_TO_END, NOT_APPLICABLE,
    PER_LAYER,
)
from e2e.spans import SpanLog, timed  # noqa: E402

#: seconds importing the program (and this harness) took
IMPORT_S = time.perf_counter() - _t

BETTER = {row[0]: row[2] for row in END_TO_END}


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when every
    operation failed and there is nothing to rank)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def steady(values: list, better: str) -> float:
    """One number for a run from its laps' values: the best of them.
    The laps do identical work, so what differs between them is the
    host, and the host only ever adds time: it runs the same lap
    30-45 % slower for spells of a second to a minute and more.  A
    mean or a median moves with however many laps a spell covered;
    the best lap stays put as long as one lap of the run escaped."""
    return min(values) if better == "lower" else max(values)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    *, smoke: bool = False, spec: wl.Spec | None = None,
) -> dict:
    """One full run of workload ``name``; returns the result document
    (``correct``/``attempted``/``failed``/``metrics`` plus ``detail``).

    ``spec`` overrides the registered shape (the self-tests shrink a
    budget with it)."""
    spec = spec or wl.SPECS[name]
    sizes = spec.sized(seconds, smoke)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        inputs = wl.make_inputs(spec, sizes, seed)
        harness = wl.Harness(spec, sizes, inputs, scratch)
        laps = serve(harness, None)
        audited = laps[-1]
        layer = None
        if trace:
            _release(audited)
            log = SpanLog(spec.name)
            before = (prepare_cache.stats.hits, prepare_cache.stats.lookups)
            audited, = serve(harness, log)
            after = (prepare_cache.stats.hits, prepare_cache.stats.lookups)
            layer = layers.window_layers(audited, log)
            lookups = after[1] - before[1]
            layer["caching.prepare_hit_ratio"] = (
                (after[0] - before[0]) / lookups if lookups else 0.0
            )
            # one traced lap against the typical untraced one
            layer["bench.trace_overhead_ratio"] = (
                audited.wall_s
                / statistics.median(lap.wall_s for lap in laps[1:])
            )
        audit, measured = checks.audit_window(
            spec, sizes, inputs, audited, seed
        )
        if trace:
            if spec.door:
                layer.update(layers.door_layers(harness, audited, log))
            layer.update(measured)
            layer.update(
                layers.replay_layers(spec, sizes, inputs, log, scratch)
            )
            if spec.cycles:
                # the traced cycle's own boots, not the replay's one
                layer["store.publish_s"] = audited.stages["store_publish_s"]
                layer["store.boot_s"] = audited.stages["store_boot_s"]
            _, layer["obs.trace.export_s"] = timed(
                log, "obs.export_traces", None,
                audited.service.export_traces,
                os.path.join(scratch, "service-traces.jsonl"),
            )
            layer["bench.generate_s"] = inputs.generate_s
            layer["bench.import_s"] = IMPORT_S
            log.flush(os.path.join(OUT, f"trace-{spec.name}.jsonl"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return _document(
        spec, seed, seconds, smoke, sizes, laps, audited, audit, layer,
    )


def serve(harness: wl.Harness, log: SpanLog | None) -> list:
    """The laps of one pass.  Untraced, laps are started until
    ``sizes.seconds`` have gone by (and ``sizes.min_laps`` were made);
    the traced pass (``log`` given) is a single lap.  Only the last
    lap keeps its service, which then answers the check population."""
    sizes = harness.sizes
    harness.log = log
    laps = []
    start = time.perf_counter()
    try:
        while True:
            if laps:
                _release(laps[-1])
            laps.append(harness.lap())
            if log is not None or (
                len(laps) >= sizes.min_laps
                and time.perf_counter() - start >= sizes.seconds
            ):
                break
    finally:
        harness.log = None
    laps[-1].checked = wl.answer_checks(
        laps[-1].service, harness.spec, harness.inputs
    )
    return laps


def _release(lap: wl.Window) -> None:
    """Drop a lap's service and store before the next build, so that
    build's garbage collections do not walk a dead service's heap."""
    lap.service = None
    if lap.store_dir:
        shutil.rmtree(lap.store_dir, ignore_errors=True)


def answers_digest(rows: list) -> str:
    """Order-independent digest of the answers in ``rows``."""
    lines = sorted(f"{row[0].name}:{row[1]!r}" for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _latencies_ms(lap: wl.Window) -> list:
    return sorted(
        row[2] * 1e3 for row in lap.served if not wl.failed_answer(row[1])
    )


def _end_to_end(spec, laps: list) -> tuple:
    """Every end-to-end metric this workload has — ``steady`` over the
    untraced laps after the warm-up one — and the per-lap values they
    were taken from, lap 0 included."""
    per_lap = {
        "setup_s": [lap.setup_s for lap in laps],
        "queries_per_s": [
            sum(not wl.failed_answer(row[1]) for row in lap.served)
            / lap.wall_s for lap in laps
        ],
        "query_ms_p50": [
            percentile(_latencies_ms(lap), 0.50) for lap in laps
        ],
    }
    if laps[0].mutation_acks:
        per_lap["mutations_per_s"] = [
            len(lap.mutation_acks) / lap.wall_s for lap in laps
        ]
        per_lap["mutation_ack_ms_p50"] = [
            statistics.median(lap.mutation_acks) * 1e3 for lap in laps
        ]
    for key in laps[0].stages:
        per_lap[key] = [lap.stages[key] for lap in laps]
    out = {
        name: steady(values[1:], BETTER[name])
        for name, values in per_lap.items()
    }
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss / 1024
    return {
        m: out[m] for m, _unit, _better, on, _meaning in END_TO_END
        if spec.name in on
    }, per_lap


def _document(
    spec, seed, seconds, smoke, sizes, laps, audited, audit, layer,
) -> dict:
    """The result document: the contract's four keys plus ``detail``.
    Timings always come from the untraced ``laps``; the audit ran on
    ``audited`` (the traced lap when there is one, else the last)."""
    passes = laps if audited is laps[-1] else laps + [audited]
    digests = [answers_digest(lap.served) for lap in passes]
    # identical inputs, identical answers: a lap that disagrees with
    # the audited one gave answers nobody verified
    disagree = sum(d != digests[-1] for d in digests)
    bad = sum(
        wl.failed_answer(row[1])
        for lap in passes for row in lap.served + lap.checked
    )
    refused = sum(lap.mutations_refused for lap in passes)
    mismatches = sum(lap.boot_mismatches for lap in passes)
    attempted = sum(
        len(lap.served) + len(lap.checked) + len(lap.mutation_acks)
        + bool(lap.stages) for lap in passes
    ) + refused
    failed = bad + refused + mismatches + disagree + audit.wrong
    end_to_end, per_lap = _end_to_end(spec, laps)
    latencies = sorted(
        ms for lap in laps[1:] for ms in _latencies_ms(lap)
    )
    detail = {
        "workload": spec.name, "seed": seed, "seconds": seconds,
        "smoke": smoke, "sizes": vars(sizes).copy(),
        "end_to_end": end_to_end,
        #: per lap, lap 0 (the warm-up, in no estimate) first
        "laps": per_lap,
        "latency_samples": len(latencies),
        "latency_ms": {
            f"p{round(q * 100)}": percentile(latencies, q)
            for q in (0.5, 0.9, 0.95, 0.99, 1.0)
        },
        "window_s": sum(lap.wall_s for lap in laps[1:]),
        "audit": audit.as_dict(),
        #: of one lap; every lap and pass did bit-identical work
        "counts": audited.counts,
        "answers_digest": answers_digest(audited.served + audited.checked),
        "passes_agree": (
            not disagree
            and all(lap.counts == audited.counts for lap in passes)
        ),
    }
    if layer is None:
        metrics = {
            m: {"value": end_to_end[m], "unit": unit}
            for m, unit, *_ in CONTRACT_END_TO_END
        }
    else:
        skip = NOT_APPLICABLE[spec.name]
        detail["race_overhead_base_s"] = layer.pop(
            "psi.race_overhead_base_s"
        )
        layer["query_ms_p99"] = percentile(latencies, 0.99)
        #: the full layer table; None = the layer does not run here
        detail["layers"] = {
            m: None if m in skip else layer[m]
            for m, _unit, _better, _moves in PER_LAYER
        }
        layer["query_ms_p50"] = end_to_end["query_ms_p50"]
        metrics = {
            m: {"value": layer[m], "unit": unit}
            for m, unit, _better, _moves in CONTRACT_LAYERS
        }
    return {
        "correct": not (audit.wrong or mismatches or disagree),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(wl.SPECS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=wl.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny datasets and a few dozen queries (the self-test size)",
    )
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one interpreter, one core: the GIL serialises door-hot's two
        # threads anyway, and a scheduler that parks them on different
        # cores was seen to add 40 % to its median latency for minutes
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke,
    )
    detail = result.pop("detail")
    units = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
    shown = detail.get("layers") or detail["end_to_end"]
    for name, value in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:42s} {text:>14s} {units[name]}")
    print(
        f"{detail['latency_samples']} latency samples; audit "
        f"{detail['audit']}; {result['failed']} of "
        f"{result['attempted']} operations failed; total "
        f"{time.perf_counter() - _T0:.1f} s"
    )
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
