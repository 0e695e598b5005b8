"""The ledger's command line.

    PYTHONPATH=src python -m benchmarks.e2e run --seed 42 [--trace]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e table BENCH_e2e.json

``run`` executes every workload in its own fresh interpreter, one at a
time, in ``--repeats`` rounds over all five, prints every metric by
name with its unit and writes the ledger; with ``--trace`` each
workload is run once more with spans recorded and the per-layer table
is added.  It exits non-zero when any operation failed or any answer
was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from . import ledger
from .catalogue import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _one(workload: str, args, trace: int) -> dict:
    """One ``run.py`` child; its result document with ``detail``."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload}: no result (exit {done.returncode})\n"
            f"{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("# detail "))
    return result


def cmd_run(args) -> int:
    doc = {
        "bench": "e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "env": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "PYTHONHASHSEED": "0",
        },
        "workloads": {},
    }
    ok = True
    # round by round, not workload by workload: a slow phase of the
    # host (they last from seconds to minutes here) then costs each
    # workload at most one of its repeats, and the median ignores it
    runs = {workload: [] for workload in WORKLOADS}
    for _ in range(args.repeats):
        for workload in WORKLOADS:
            runs[workload].append(_one(workload, args, 0))
    for workload in WORKLOADS:
        traced = _one(workload, args, 1) if args.trace else None
        entry = ledger.aggregate(runs[workload], traced)
        doc["workloads"][workload] = entry
        ok = (
            ok and entry["correct"] and not entry["failed"]
            and entry.get("traced_correct", True)
        )
        print(f"== {workload}  (median of {args.repeats}, min-max)")
        for name, m in entry["end_to_end"].items():
            print(
                f"{name:20s} {m['median']:12.5g} {m['unit']:4s} "
                f"({m['min']:.5g} - {m['max']:.5g})"
            )
        print(
            f"{'failed_ratio':20s} {entry['failed_ratio']:12.5g}      "
            f"({entry['failed']} of {entry['attempted']}; "
            f"{entry['latency_samples']} latency samples; exact counts "
            f"{'identical' if entry['exact_counts_identical'] else 'DIFFER'}"
            " across repeats)"
        )
        for name, value in entry.get("layers", {}).items():
            shown = value if isinstance(value, str) else f"{value:.5g}"
            print(f"  {name:40s} {shown:>12s}")
        sys.stdout.flush()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    with open(args.a) as fa, open(args.b) as fb:
        rows = ledger.compare(json.load(fa), json.load(fb))
    print(ledger.render_compare(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def cmd_table(args) -> int:
    with open(args.ledger) as fh:
        print(ledger.render_table(json.load(fh)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the workloads, write the ledger")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=os.path.join(HERE, "BENCH_e2e.json"))
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="A/B two ledgers")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("table", help="render a ledger as markdown")
    p.add_argument("ledger")
    p.set_defaults(fn=cmd_table)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
