"""The ledger document: aggregate runs, compare two ledgers, render.

A ledger (``BENCH_e2e.json``) holds, per workload, the median, min and
max of every end-to-end metric over ``--repeats`` fresh-interpreter
runs of one seed (each run's value is itself taken over its laps), the
exact counts of one lap, which every lap of every run agreed on, and —
when traced — the per-layer table of one traced run.
"""

from __future__ import annotations

import statistics

from .catalogue import BOUND, END_TO_END, PER_LAYER, WORKLOADS

__all__ = ["aggregate", "compare", "render_compare", "render_table"]


def aggregate(runs: list[dict], traced: dict | None) -> dict:
    """Fold the untraced ``runs`` of one workload (each the result
    document of ``run.py`` with its ``detail``) and its optional traced
    run into one ledger entry."""
    first = runs[0]["detail"]
    metrics = {}
    for name, unit, better, on, _meaning in END_TO_END:
        if first["workload"] not in on:
            continue
        values = [run["detail"]["end_to_end"][name] for run in runs]
        metrics[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
            "unit": unit,
            "better": better,
            "bound": BOUND,
        }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    exact = [
        (run["detail"]["counts"], run["detail"]["answers_digest"])
        for run in runs
    ]
    entry = {
        "sizes": first["sizes"],
        "end_to_end": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "correct": all(run["correct"] for run in runs),
        "latency_samples": first["latency_samples"],
        "audit": first["audit"],
        "counts": first["counts"],
        "answers_digest": first["answers_digest"],
        #: every lap of every repeat of one seed does bit-identical work
        "exact_counts_identical": (
            all(e == exact[0] for e in exact)
            and all(run["detail"]["passes_agree"] for run in runs)
        ),
    }
    #: laps each run made, and the first run's process-cold warm-up lap
    #: (cold-boot's cycle 0), which is in no estimate
    entry["laps"] = [
        len(run["detail"]["laps"]["setup_s"]) for run in runs
    ]
    entry["lap0"] = {
        name: values[0] for name, values in first["laps"].items()
    }
    if traced is not None:
        entry["layers"] = {
            name: "n/a" if value is None else value
            for name, value in traced["detail"]["layers"].items()
        }
        entry["race_overhead_base_s"] = (
            traced["detail"]["race_overhead_base_s"]
        )
        entry["traced_correct"] = (
            traced["correct"] and not traced["failed"]
        )
    return entry


def _worse_by(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(a: dict, b: dict) -> list[dict]:
    """One row per (workload, end-to-end metric), plus one
    ``failed_ratio`` row per workload.  Both ledgers hold every
    workload and every metric it has; one that does not is not a
    ledger and raises ``KeyError``."""
    rows = []
    for workload in WORKLOADS:
        entry_a, entry_b = a["workloads"][workload], b["workloads"][workload]
        for name, ma in entry_a["end_to_end"].items():
            mb = entry_b["end_to_end"][name]
            better, bound = ma["better"], ma["bound"]
            worse = _worse_by(ma["median"], mb["median"], better)
            spread = max(
                (m["max"] - m["min"]) / m["median"] for m in (ma, mb)
            )
            interleave = (
                ma["min"] <= mb["max"] and mb["min"] <= ma["max"]
            )
            if worse > bound:
                verdict = "regressed"
            elif spread > bound and interleave:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name,
                "unit": ma["unit"], "a": ma["median"], "b": mb["median"],
                "ratio": mb["median"] / ma["median"],
                "worse_by": worse, "bound": bound, "spread": spread,
                "verdict": verdict,
            })
        fa, fb = entry_a["failed_ratio"], entry_b["failed_ratio"]
        rows.append({
            "workload": workload, "metric": "failed_ratio",
            "unit": "ratio", "a": fa, "b": fb,
            "ratio": fb / fa if fa else float(fb > 0),
            "worse_by": fb - fa, "bound": 0.0, "spread": 0.0,
            "verdict": "regressed" if fb > fa else "ok",
        })
    return rows


def render_compare(rows: list[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict",
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:14s} {r['metric']:16s} {r['a']:12.5g} "
            f"{r['b']:12.5g} {r['ratio']:7.3f} {r['bound']:6.2f} "
            f"{r['spread']:7.3f}  {r['verdict']}"
        )
    lines.append("ratio base: A's median; spread: (max-min)/median, the "
                 "wider of the two ledgers")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def render_table(ledger: dict) -> str:
    """The ledger as two markdown tables (README's first ledger)."""
    names = list(WORKLOADS)
    head = "| metric | unit | " + " | ".join(names) + " |"
    rule = "|---|---|" + "---:|" * len(names)
    lines = [head, rule]
    for name, unit, _better, on, _meaning in END_TO_END:
        cells = []
        for w in names:
            if w not in on:
                cells.append("n/a")
                continue
            m = ledger["workloads"][w]["end_to_end"][name]
            cells.append(
                f"{_fmt(m['median'])} ({_fmt(m['min'])}–{_fmt(m['max'])})"
            )
        lines.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    cells = [
        f"{ledger['workloads'][w]['failed']} / "
        f"{ledger['workloads'][w]['attempted']}" for w in names
    ]
    lines.append("| failed / attempted | count | " + " | ".join(cells) + " |")
    cells = [str(ledger["workloads"][w]["latency_samples"]) for w in names]
    lines.append("| latency samples | count | " + " | ".join(cells) + " |")
    if "layers" in ledger["workloads"][names[0]]:
        lines += ["", head.replace("metric", "layer metric"), rule]
        for name, unit, _better, _moves in PER_LAYER:
            cells = [
                _fmt(ledger["workloads"][w]["layers"][name]) for w in names
            ]
            lines.append(
                f"| `{name}` | {unit} | " + " | ".join(cells) + " |"
            )
    return "\n".join(lines)
