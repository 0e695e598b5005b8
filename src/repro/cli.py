"""Command-line interface.

Everyday entry points::

    python -m repro datasets   [--scale tiny]
    python -m repro workload   --dataset yeast --size 8 --count 5
    python -m repro match      --dataset yeast --algorithm GQL --size 8
    python -m repro race       --dataset yeast --size 12 \
                               --algorithms GQL,SPA --rewritings Orig,DND
    python -m repro experiment --name fig2 [--scale tiny]
    python -m repro serve      --dataset yeast --scale tiny
    python -m repro warm       --dataset ppi --scale tiny --store DIR
    python -m repro scenario   verify scenarios

``experiment`` regenerates a paper figure/table by name, and
``datasets`` / ``analyze`` print Tables 1-2 and Observation 5: each is
declared once in :mod:`repro.harness.figures`, which the benchmark
suite renders too; at ``--scale tiny`` they answer in seconds, at the
default scale ``experiment`` reproduces the benchmark numbers.
``serve`` boots the serving layer and replays a multi-tenant workload
through the closed-loop load generator (or, with ``--listen``, serves
queries over a socket); ``warm`` persists a warmed catalog for
``serve --store`` to boot from.  Both map their flags onto one
:class:`repro.service.spec.ServiceSpec` (:func:`_service_spec`), the
same value a scenario YAML loads into, and build through it;
``scenario run --json`` is the machine-readable form of a run.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .datasets import DATASETS, NFV_DATASETS, SCALES, build_graphs
from .graphs import dumps_gfu
from .matching import Budget, available_matchers, make_matcher
from .psi import PsiNFV, race_from_costs
from .service.admission import TicketState
from .service.planner import (
    SERVED_ALGORITHMS,
    SERVED_REWRITINGS,
    QueryOptions,
    race_starts,
)
from .service.schema import SpecError
from .tables import Table
from .workload import generate_workload

__all__ = ["main", "build_parser"]


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


class _FigureNames:
    """``experiment --name``'s choices, read off the paper-figure
    registry only when argparse checks or lists them: the harness loads
    in the commands that render a figure, never in ``serve`` or ``warm``."""

    def __contains__(self, name: object) -> bool:
        from .harness.figures import FIGURES

        return name in FIGURES

    def __iter__(self):
        from .harness.figures import FIGURES

        return iter(FIGURES)


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------

def cmd_datasets(args: argparse.Namespace) -> int:
    """Print Tables 2 and 1: the dataset stand-ins' characteristics."""
    from .harness import figures

    _print("\n\n".join(
        table.render()
        for name in ("table2", "table1")  # NFV first, as always printed
        for table in figures.FIGURES[name].tables(scale=args.scale)
    ))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    """Generate a query workload; print it or save it as GFU."""
    graphs = build_graphs(args.dataset, args.scale)
    queries = generate_workload(
        graphs, args.count, args.size, seed=args.seed
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps_gfu([q.graph for q in queries]))
        _print(f"wrote {len(queries)} queries to {args.out}")
        return 0
    table = Table(
        f"workload: {args.count} x {args.size}-edge queries on "
        f"{args.dataset}",
        ["query", "vertices", "edges", "labels", "source graph"],
    )
    for q in queries:
        table.add_row(
            q.name, q.graph.order, q.graph.size,
            len(q.graph.distinct_labels()), q.source_graph_id,
        )
    _print(table.render())
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    """Run one matcher on one generated query and report its cost."""
    graphs = build_graphs(args.dataset, args.scale)
    [query] = generate_workload(graphs, 1, args.size, seed=args.seed)
    matcher = make_matcher(args.algorithm)
    budget = Budget(max_steps=args.budget) if args.budget else None
    out = matcher.run(
        graphs[query.source_graph_id],
        query.graph,
        budget=budget,
        max_embeddings=args.max_embeddings,
        count_only=True,
    )
    status = "killed" if out.killed else "completed"
    _print(
        f"{matcher.name} on {args.dataset} ({args.size}-edge query, "
        f"seed {args.seed}): {out.num_embeddings} embeddings in "
        f"{out.steps} steps [{status}]"
    )
    return 0


def cmd_race(args: argparse.Namespace) -> int:
    """Race (algorithm x rewriting) variants on one generated query,
    staged as the service races it, beside the paper's full-width race
    replayed from the same solo costs."""
    try:
        options = QueryOptions(
            algorithms=[a.strip() for a in args.algorithms.split(",")],
            rewritings=[r.strip() for r in args.rewritings.split(",")],
            max_embeddings=args.max_embeddings,
        )
    except SpecError as exc:
        raise SystemExit(f"repro race: {exc}") from None
    variants = options.variants("nfv")
    [graph] = build_graphs(args.dataset, args.scale)
    [query] = generate_workload([graph], 1, args.size, seed=args.seed)
    psi = PsiNFV(graph)
    budget_steps = args.budget or None
    budget = Budget(max_steps=budget_steps) if budget_steps else None
    alone = {
        v: psi.run_variant(
            query.graph, v, budget=budget,
            max_embeddings=options.max_embeddings, count_only=True,
        )
        for v in variants
    }
    staged = psi.race(
        query.graph, variants, budget=budget,
        max_embeddings=options.max_embeddings, count_only=True,
        starts=race_starts(variants, budget_steps),
    ).race
    full = race_from_costs(alone, budget_steps)
    table = Table(
        f"Psi race on {args.dataset} ({args.size}-edge query)",
        ["variant", "alone", "staged bill", "full-width bill"],
    )
    for v, cost in alone.items():
        marker = " <- winner" if v == staged.winner else ""
        table.add_row(
            f"{v}{marker}",
            f"{cost.steps} [killed]" if cost.killed else cost.steps,
            staged.per_variant_steps[v],
            full.per_variant_steps[v],
        )
    _print(table.render())
    for name, race in (("staged", staged), ("full width", full)):
        verdict = (
            "killed" if race.killed
            else f"{race.winner} wins, found={race.found}"
        )
        _print(
            f"{name:10} race time {race.steps} steps, "
            f"work {race.work_steps}: {verdict}"
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Print Observation 5 and diagnose each algorithm's worst
    straggler."""
    from .harness import diagnose_straggler, figures

    _print("\n\n".join(
        table.render()
        for table in figures.FIGURES["obs5"].tables(
            args.dataset, scale=args.scale
        )
    ))
    m = figures.matrix(args.dataset, args.scale)
    for alg in m.methods:
        worst = max(
            m.units, key=lambda u: m.charged(u, alg, "Orig")
        )
        d = diagnose_straggler(m, worst, alg)
        _print("")
        _print(
            f"worst unit for {alg}: query "
            f"{m.queries[worst].name} at {d.baseline_steps} steps"
        )
        if d.rescued:
            best = d.rescuers[0]
            _print(
                f"  cheapest rescue: {best[0]}-{best[1]} at "
                f"{best[2]} steps ({d.best_speedup:.1f}x); "
                f"Psi race time {d.psi_steps} steps"
            )
        else:
            _print("  no measured attempt completes this unit")
    return 0


# ----------------------------------------------------------------------
# serving layer
# ----------------------------------------------------------------------

def _service_spec(args: argparse.Namespace):
    """The :class:`~repro.service.spec.ServiceSpec` the parsed
    ``serve``/``warm`` flags denote; a flag the spec rejects ends the
    process with the one-line diagnostic, here and nowhere else.

    ``warm`` has only the dataset, layout and ``--algorithms`` flags:
    it races nothing, so its pool is sized to its algorithm list and
    the spec checks the names and the layout alone.
    """
    from .service.spec import (
        EngineSpec,
        FaultSpec,
        PersistenceSpec,
        ServiceSpec,
        TopologySpec,
        WorkloadSpec,
    )

    algorithms = tuple(args.algorithms.split(","))
    topology = {
        "shards": args.shards,
        "replicas": args.replicas,
        "assignment": args.assignment,
    }
    try:
        if args.command == "warm":
            return ServiceSpec(
                dataset=args.dataset,
                scale=args.scale,
                engine=EngineSpec(
                    workers=len(algorithms),
                    algorithms=algorithms,
                    rewritings=("Orig",),
                ),
                topology=TopologySpec(**topology),
            )
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise SpecError(
                "workload.sizes",
                f"expected comma-separated integers, got {args.sizes!r}",
            ) from None
        return ServiceSpec(
            dataset=args.dataset,
            scale=args.scale,
            workload=WorkloadSpec(
                queries=args.queries,
                tenants=args.tenants,
                sizes=sizes,
                repeat_fraction=args.repeat_fraction,
                seed=args.seed,
                concurrency=args.concurrency,
                decision_only=args.decision_only,
                budget=args.budget,
                max_in_flight=args.max_in_flight,
            ),
            engine=EngineSpec(
                workers=args.workers,
                algorithms=algorithms,
                rewritings=tuple(args.rewritings.split(",")),
                coalesce=not args.no_coalesce,
            ),
            topology=TopologySpec(
                routing=args.routing,
                rebalance=args.rebalance,
                rebalance_every=args.rebalance_every,
                **topology,
            ),
            faults=FaultSpec(
                chaos=args.chaos,
                seed=args.chaos_seed,
                horizon=args.chaos_horizon,
            ),
            persistence=PersistenceSpec(
                store=args.store is not None, regrow=args.regrow
            ),
        )
    except SpecError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None


def cmd_warm(args: argparse.Namespace) -> int:
    """Warm a catalog and persist its artifacts to a store directory.

    The write is crash-safe (blobs then manifest, each via temp file +
    fsync + atomic rename), so a later ``serve --store DIR`` either
    sees the complete epoch or no store at all.
    """
    from .store import StoreReader, StoreWriter

    catalog = _service_spec(args).warm_catalog()
    summary = StoreWriter(args.store).write_catalog(catalog)
    _print(
        f"warmed {args.dataset} ({args.scale}, {args.shards} shard(s) x "
        f"{args.replicas} replica(s)); wrote epoch "
        f"{summary['epoch']}: {summary['blobs']} blob(s), "
        f"{summary['bytes']} bytes under {summary['path']}"
    )
    if args.verify:
        report = StoreReader(args.store).verify_all()
        _print(
            f"verify: {report['blobs_ok']} blob(s) ok, "
            f"{report['blobs_bad']} bad"
        )
        if report["blobs_bad"]:
            return 1
    return 0


def _parse_listen(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise SystemExit(f"--listen wants HOST:PORT, got {spec!r}")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad --listen port in {spec!r}") from None


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the serving layer and replay a multi-tenant workload,
    or (with ``--listen HOST:PORT``) run the asyncio front door."""
    spec = _service_spec(args)
    # a malformed address fails before the warm-up, not after it
    listen = _parse_listen(args.listen) if args.listen else None
    service = spec.build_service(store=args.store)
    if listen:
        # no synthetic workload: queries arrive over the socket
        import signal

        from .obs.server import DEFAULT_STEPS_PER_SECOND, BackgroundFrontDoor

        steps_per_second = (
            args.steps_per_second
            if args.steps_per_second is not None
            else DEFAULT_STEPS_PER_SECOND
        )
        # SIGINT and SIGTERM both end the wait below; leaving the
        # ``with`` stops the door, which drains what is in flight
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, signal.default_int_handler)
        try:
            with BackgroundFrontDoor(
                service, *listen, steps_per_second=steps_per_second
            ) as door:
                host, port = door.address
                _print(f"listening on {host}:{port}")
                _print(
                    f"dataset {args.dataset} ({args.scale}), "
                    f"{args.shards} shard(s) x {args.replicas} replica(s), "
                    f"{args.workers} workers per pool"
                )
                sys.stdout.flush()
                signal.pause()
        except KeyboardInterrupt:
            pass
        except RuntimeError as exc:  # start() could not bind the address
            raise SystemExit(f"repro serve: --listen: {exc}") from None
        return 0

    streams = spec.tenant_streams(service)
    report = spec.drive(service, streams)
    metrics = report.metrics
    shard_note = (
        f", {args.shards} shards"
        + (f" x {args.replicas} replicas" if args.replicas > 1 else "")
        + ("" if args.routing else " (unrouted)")
        if args.shards > 1
        else ""
    )
    table = Table(
        f"serve: {sum(len(s) for s in streams.values())} queries on "
        f"{args.dataset} ({args.scale}), {spec.tenants} tenants, "
        f"{args.workers} workers{shard_note}",
        ["tenant", "submitted", "completed", "cache hits", "rejected"],
    )
    for tenant in sorted({t.tenant for t in report.tickets}):
        mine = [t for t in report.tickets if t.tenant == tenant]
        done = [t for t in mine if t.state is TicketState.DONE]
        table.add_row(
            tenant, len(mine), len(done),
            sum(1 for t in done if t.cache_hit),
            sum(1 for t in mine if t.state is TicketState.REJECTED),
        )
    _print(table.render())
    lat = metrics["service.latency_steps"]
    if lat:
        _print(
            f"latency (steps): p50={lat['p50']} p95={lat['p95']} "
            f"p99={lat['p99']} max={lat['max']}"
        )
    cache = metrics["service.result_cache"]
    _print(
        f"result cache: {cache['hits']} hits / {cache['lookups']} "
        f"lookups ({100 * cache['hit_rate']:.1f}%), "
        f"{cache['entries']} entries"
    )
    _print(
        f"virtual time {report.virtual_steps} steps; "
        f"total work {metrics['service.work_steps']} steps"
    )
    if args.shards > 1:
        routing = metrics["service.routing"]
        _print(
            f"per-shard work {metrics['service.per_shard_work']}; fan-out "
            f"waste {metrics['service.fanout_waste']} steps; routed "
            f"{routing['routed']} (pruned {routing['shards_pruned']}, "
            f"waves skipped {routing['waves_skipped']})"
        )
    if args.rebalance:
        _print(
            f"rebalance: {metrics['rebalance.rebalances']} rebalances, "
            f"{metrics['rebalance.migrations']} graphs migrated"
        )
    if args.chaos:
        ch = metrics["service.faults"]
        _print(
            f"chaos: {ch['injected']} faults injected, "
            f"{ch['rerouted']} legs rerouted, "
            f"{ch['degraded']} degraded, {report.lost} lost"
        )
    if args.store is not None or report.regrown:
        from_store = sum(1 for r in report.regrown if r["from_store"])
        _print(
            f"store: {metrics.get('store.restores', 0)} restores, "
            f"{metrics.get('store.rebuilds', 0)} rebuilds, "
            f"{metrics.get('store.corrupt_detected', 0)} corrupt "
            f"({metrics.get('store.quarantined', 0)} quarantined); regrew "
            f"{len(report.regrown)} replica(s), {from_store} from store"
        )
    _print(f"results digest {report.digest}")
    if args.verbose:
        for t in report.completed:
            r = t.result
            marker = " [cache]" if t.cache_hit else ""
            _print(
                f"  {t.tenant} {t.query.name}: {r.winner_label} "
                f"in {r.steps} steps, latency {t.latency}{marker}"
            )
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Follow a front door's ``/watch`` stream, one line per frame.

    Disconnects (dead socket, timed-out read, error status) reconnect
    with bounded exponential backoff + jitter, up to
    ``--max-reconnects`` consecutive failures; a ``Retry-After``
    header from the server overrides the computed delay, never past
    ``--backoff-cap``.  A healthy frame resets the backoff.
    """
    import time

    from .obs.client import ObsClient, WatchDisconnected, reconnect_delays

    host, port = _parse_listen(args.endpoint)
    client = ObsClient(host, port)
    seen = 0
    failures = 0
    delays = reconnect_delays(
        base=args.backoff_base, cap=args.backoff_cap
    )
    while True:
        remaining = args.frames - seen if args.frames else 0
        try:
            for frame in client.watch(
                frames=remaining,
                interval=args.interval,
                read_timeout=args.read_timeout,
            ):
                if failures:
                    failures = 0
                    delays = reconnect_delays(
                        base=args.backoff_base, cap=args.backoff_cap
                    )
                seen += 1
                lat = frame.get("latency_steps") or {}
                _print(
                    f"[{frame['seq']:>4}] clock={frame['clock']} "
                    f"done={frame['completed']} "
                    f"(+{frame['delta_completed']}, "
                    f"{frame['throughput_qps']:.1f} q/s) "
                    f"p50={lat.get('p50', '-')} p95={lat.get('p95', '-')} "
                    f"waste={frame['fanout_waste']} "
                    f"cache={100 * frame['cache_hit_rate']:.0f}% "
                    f"replicas={frame['replicas_live']} "
                    f"queued={frame['queued']} active={frame['active']} "
                    f"degraded={frame['degraded']} "
                    f"mut={frame.get('mutations_applied', 0)}"
                    f"(+{frame.get('mutations_pending', 0)}) "
                    f"jlag={frame.get('journal_lag', 0)}"
                )
                sys.stdout.flush()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0
        except WatchDisconnected as exc:
            failures += 1
            if failures > args.max_reconnects:
                _print(
                    f"tail: giving up on {host}:{port} after "
                    f"{args.max_reconnects} reconnect(s) ({exc.reason})"
                )
                return 1
            delay = (
                min(exc.retry_after, args.backoff_cap)
                if exc.retry_after is not None
                else next(delays)
            )
            _print(
                f"tail: disconnected ({exc.reason}); reconnect "
                f"{failures}/{args.max_reconnects} in {delay:.1f}s"
            )
            sys.stdout.flush()
            time.sleep(delay)
            continue
        # clean end of stream (server drained, or --frames satisfied)
        return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate a paper figure/table by name."""
    from .harness import figures

    figure = figures.FIGURES[args.name]
    datasets = (args.dataset,) if args.dataset else figure.default
    try:
        tables = figure.tables(*datasets, scale=args.scale)
    except ValueError as exc:
        raise SystemExit(f"repro experiment: {args.name} {exc}") from None
    for t in tables:
        _print(t.render())
        _print("")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def cmd_scenario(args: argparse.Namespace) -> int:
    """Drive the declarative scenario harness: ``list`` the configs in
    a directory, ``run`` named scenarios (plus the siblings their
    expect blocks compare against), or ``verify`` the whole matrix —
    the CI scenario-matrix job is ``repro scenario verify scenarios``.

    Exit codes: 0 = conforms, 1 = an ``expect`` assertion failed,
    2 = a config cannot load or a scenario cannot run.
    """
    import json

    from .scenarios import (
        ScenarioConfigError,
        ScenarioError,
        evaluate_expect,
        load_scenario_dir,
        run_with_siblings,
        verify_scenarios,
    )

    try:
        configs = load_scenario_dir(args.dir)
    except ScenarioConfigError as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2

    def describe(result) -> str:
        digest = (
            f"decisions {result.decisions_digest}"
            if configs[result.name].workload.decision_only
            else f"answers {result.answers_digest}"
        )
        return (
            f"{result.name}: {digest}, {result.completed} completed, "
            f"{result.lost} lost, p95={result.p95}"
        )

    if args.action == "list":
        table = Table(
            f"{len(configs)} scenarios in {args.dir}",
            ["name", "dataset", "layout", "description"],
        )
        for name in sorted(configs):
            cfg = configs[name]
            t = cfg.topology
            flags = [
                flag
                for flag, on in (
                    ("routed", t.shards > 1 and t.routing),
                    ("rebalance", t.rebalance),
                    ("chaos", cfg.faults.chaos),
                    ("corrupt", bool(cfg.faults.store_corruption)),
                    ("store", cfg.persistence.store),
                    ("regrow", cfg.persistence.regrow),
                    ("decision", cfg.workload.decision_only),
                    ("mutate", cfg.mutations.count > 0),
                    ("journal", cfg.mutations.journal),
                    ("replay", cfg.mutations.crash_replay),
                )
                if on
            ]
            layout = f"{t.shards}x{t.replicas}" + (
                f" +{'+'.join(flags)}" if flags else ""
            )
            table.add_row(name, cfg.dataset, layout, cfg.description)
        _print(table.render())
        return 0

    targets = args.names if args.action == "run" else sorted(configs)
    try:
        results = run_with_siblings(
            configs, targets,
            progress=lambda name: _print(f"running {name} ..."),
        ) if args.action == "run" else None
        if results is None:
            results, failures = verify_scenarios(
                configs,
                progress=lambda name: _print(f"running {name} ..."),
            )
        else:
            failures = []
            for name in targets:
                failures.extend(
                    evaluate_expect(configs[name], results[name], results)
                )
    except (ScenarioError, ScenarioConfigError) as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2

    for name in sorted(results):
        _print(describe(results[name]))
    if args.action == "run" and args.json:
        _print(json.dumps(
            {name: results[name].as_dict() for name in sorted(results)},
            indent=2, sort_keys=True,
        ))
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    checked = len(targets)
    _print(
        f"{checked} scenario(s) checked, {len(failures)} expect "
        f"failure(s)"
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Subgraph querying with parallel use of query rewritings "
            "and alternative algorithms (EDBT 2017 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="summarize the dataset stand-ins")
    p.add_argument("--scale", choices=SCALES,
                   default="default")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("workload", help="generate a query workload")
    p.add_argument("--dataset", required=True,
                   choices=tuple(DATASETS))
    p.add_argument("--size", type=int, default=8,
                   help="query size in edges")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale", choices=SCALES,
                   default="default")
    p.add_argument("--out", help="write queries to a GFU file")
    p.set_defaults(fn=cmd_workload)

    p = sub.add_parser("match", help="run one matcher on one query")
    p.add_argument("--dataset", required=True,
                   choices=tuple(DATASETS))
    p.add_argument("--algorithm", default="GQL",
                   choices=available_matchers())
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=int, default=200_000,
                   help="step cap (0 = unlimited)")
    p.add_argument("--max-embeddings", type=int, default=1000)
    p.add_argument("--scale", choices=SCALES,
                   default="default")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("race", help="run a Psi race on one query")
    p.add_argument("--dataset", required=True, choices=NFV_DATASETS)
    p.add_argument("--algorithms", default=",".join(SERVED_ALGORITHMS),
                   help="comma-separated matcher names")
    p.add_argument("--rewritings", default=",".join(SERVED_REWRITINGS),
                   help="comma-separated rewriting names")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--max-embeddings", type=int, default=1000)
    p.add_argument("--scale", choices=SCALES,
                   default="default")
    p.set_defaults(fn=cmd_race)

    p = sub.add_parser(
        "analyze",
        help="straggler overlap / winner attribution / diagnoses",
    )
    p.add_argument("--dataset", default="yeast", choices=NFV_DATASETS)
    p.add_argument("--scale", choices=SCALES,
                   default="tiny")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "experiment", help="regenerate a paper figure/table"
    )
    # set after add_argument, which would list the choices at once
    p.add_argument("--name", required=True).choices = _FigureNames()
    p.add_argument("--dataset", help="dataset override")
    p.add_argument("--scale", choices=SCALES,
                   default="tiny")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser(
        "warm",
        help="warm a catalog and persist it to an artifact store",
    )
    p.add_argument("--store", metavar="DIR", required=True,
                   help="store directory (created if absent); the "
                        "manifest lands last via an atomic rename")
    p.add_argument("--dataset", default="yeast",
                   choices=tuple(DATASETS))
    p.add_argument("--scale", choices=SCALES,
                   default="default")
    p.add_argument("--shards", type=int, default=1,
                   help="shards the collection is partitioned over "
                        "(one index blob per shard)")
    p.add_argument("--replicas", type=int, default=1,
                   help="replica layout recorded in the manifest")
    p.add_argument("--assignment", default="size_balanced",
                   choices=("size_balanced", "hash"))
    p.add_argument("--algorithms", default=",".join(SERVED_ALGORITHMS))
    p.add_argument("--verify", action="store_true",
                   help="re-checksum every written blob before exiting")
    p.set_defaults(fn=cmd_warm)

    p = sub.add_parser(
        "serve",
        help="boot the serving layer and replay a multi-tenant workload",
    )
    p.add_argument("--dataset", default="yeast",
                   choices=tuple(DATASETS))
    p.add_argument("--scale", choices=SCALES,
                   default="default")
    p.add_argument("--queries", type=int, default=50,
                   help="total queries across all tenants")
    p.add_argument("--tenants", type=int, default=3)
    p.add_argument("--workers", type=int, default=4,
                   help="simulated worker pool size (per shard)")
    p.add_argument("--shards", type=int, default=1,
                   help="catalog shards; each gets its own worker "
                        "pool and queries fan out across them")
    p.add_argument("--replicas", type=int, default=1,
                   help="warm replicas per shard; each gets its "
                        "own worker pool and legs land on the "
                        "least-loaded live one")
    p.add_argument("--chaos", action="store_true",
                   help="inject a seeded deterministic fault plan "
                        "(replica kills, pool wedges, task "
                        "failures); needs --replicas >= 2")
    p.add_argument("--chaos-seed", type=int, default=1337,
                   help="seed for the chaos fault plan")
    p.add_argument("--chaos-horizon", type=int, default=0,
                   help="schedule faults on the virtual clock up "
                        "to this step (0 = schedule on query "
                        "completions instead)")
    p.add_argument("--routing", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="routed fan-outs: probe each shard's "
                        "filter index, prune shards with no "
                        "candidate and give a decision query's "
                        "expected-first-true shard a head start "
                        "(--no-routing = the full fan-out)")
    p.add_argument("--assignment", default="size_balanced",
                   choices=("size_balanced", "hash"),
                   help="initial shard assignment strategy")
    p.add_argument("--decision-only", action="store_true",
                   help="existence answers only: sweeps stop at "
                        "the first match and the first true shard "
                        "settles the query")
    p.add_argument("--rebalance", action="store_true",
                   help="migrate graphs off hot shards at quiesce "
                        "points when per-shard step bills skew")
    p.add_argument("--rebalance-every", type=int, default=0,
                   help="completions between quiesce checks "
                        "(0 = queries/4)")
    p.add_argument("--concurrency", type=int, default=1,
                   help="closed-loop in-flight queries per tenant")
    p.add_argument("--max-in-flight", type=int, default=4,
                   help="admission cap per tenant")
    p.add_argument("--algorithms", default=",".join(SERVED_ALGORITHMS))
    p.add_argument("--rewritings", default=",".join(SERVED_REWRITINGS))
    p.add_argument("--sizes", default="4,8,12",
                   help="query-size strata (edges)")
    p.add_argument("--repeat-fraction", type=float, default=0.35,
                   help="fraction of repeated (isomorphic) queries")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--no-coalesce", action="store_true",
                   help="disable in-flight request coalescing")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="boot warm state from a persisted artifact "
                        "store (written by `repro warm --store`); "
                        "corrupt or absent artifacts fall back to "
                        "an in-process rebuild")
    p.add_argument("--regrow", action="store_true",
                   help="heal permanent replica losses mid-load: "
                        "each killed replica is replaced via "
                        "Service.add_replica (a shard that lost every "
                        "replica re-warms from --store when one is "
                        "attached)")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per completed query")
    p.add_argument("--listen", metavar="HOST:PORT", default=None,
                   help="serve queries over an asyncio front door "
                        "instead of replaying a synthetic workload "
                        "(port 0 picks a free port; see GET /stats, "
                        "GET /trace/<id>, GET /watch, POST /query)")
    p.add_argument("--steps-per-second", type=int, default=None,
                   help="virtual steps per wall second, used only to "
                        "render Retry-After hints on 429s "
                        "(default 1,000,000)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "tail",
        help="follow a running front door's /watch stream",
    )
    p.add_argument("endpoint", metavar="HOST:PORT",
                   help="address printed by `repro serve --listen`")
    p.add_argument("--frames", type=int, default=0,
                   help="stop after this many frames (0 = forever)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between frames")
    p.add_argument("--max-reconnects", type=int, default=5,
                   help="consecutive reconnect attempts before giving "
                        "up (a healthy frame resets the count)")
    p.add_argument("--backoff-base", type=float, default=0.5,
                   help="first reconnect delay bound (seconds); "
                        "doubles per consecutive failure, with jitter")
    p.add_argument("--backoff-cap", type=float, default=30.0,
                   help="reconnect delay ceiling (seconds)")
    p.add_argument("--read-timeout", type=float, default=None,
                   help="per-frame read timeout in seconds (default: "
                        "10x --interval)")
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser(
        "scenario",
        help="declarative scenario harness: YAML configs run through "
             "the conformance runner",
    )
    ssub = p.add_subparsers(dest="action", required=True)

    sp = ssub.add_parser(
        "list", help="list the scenario configs in a directory"
    )
    sp.add_argument("dir", nargs="?", default="scenarios",
                    help="scenario directory (default: scenarios)")
    sp.set_defaults(fn=cmd_scenario)

    sp = ssub.add_parser(
        "run",
        help="run named scenarios (plus the siblings their expect "
             "blocks reference) and evaluate their expect blocks",
    )
    sp.add_argument("names", nargs="+", metavar="NAME")
    sp.add_argument("--dir", default="scenarios",
                    help="scenario directory (default: scenarios)")
    sp.add_argument("--json", action="store_true",
                    help="also emit every result as JSON (includes "
                         "the digests to pin in expect blocks)")
    sp.set_defaults(fn=cmd_scenario)

    sp = ssub.add_parser(
        "verify",
        help="run every scenario in a directory and evaluate every "
             "expect block (the CI scenario-matrix job)",
    )
    sp.add_argument("dir", nargs="?", default="scenarios",
                    help="scenario directory (default: scenarios)")
    sp.set_defaults(fn=cmd_scenario)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes the pipe early (``repro ... | head``) ends
    the command quietly: stdout is pointed at the null device, so the
    interpreter's exit flush cannot raise again, and the exit code is 1.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
