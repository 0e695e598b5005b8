"""Layer replays: each lower layer's public function, called directly.

The traced pass of a window gives spans around the calls the workload
itself makes (``Service.submit``, ``Service.pump``, ...); whatever sits
below those calls is invisible from outside.  After the window, this
module calls each lower layer's public function on the same graphs and
a sample of the same queries, one span per call, so every layer gets a
number that was taken where its work happens.  A replay measures the
layer alone, not its share of the window.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
from time import perf_counter

from repro.graphs import LabeledGraph
from repro.graphs.io import graph_to_json
from repro.harness import build_ftv_graphs, build_nfv_graph
from repro.indexing import GrapesIndex, LabelInterner, coded_path_census
from repro.matching import Budget, MatchOutcome, drive, make_matcher
from repro.obs.client import ObsClient
from repro.obs.server import BackgroundFrontDoor
from repro.psi import (
    PsiNFV, RaceOutcome, Variant, interleaved_race, variants_from_spec,
)
from repro.rewriting import LabelStats, make_rewriting
from repro.service import (
    CachedResult, DatasetCatalog, ResultCache, ShardedCatalog, ShardRouter,
    assign_shards, canonical_query_key, merge_shard_outcomes,
)
from repro.service.catalog import approx_deep_bytes
from repro.store import (
    JournalRecord, MutationJournal, StoreReader, StoreWriter,
)
from repro.store.codec import (
    decode_graphs, decode_index, encode_graphs, encode_index,
)

from .spans import SpanLog, timed
from .workloads import (
    POPULATION_SEED, Harness, Inputs, Sizes, Spec, Window, answer,
    build_service, fresh_copy, newcomer, service_counts,
)

__all__ = ["window_layers", "door_layers", "replay_layers"]

#: journal records appended by the journal replay
JOURNAL_RECORDS = 30
#: matchers driven solo on every workload's sample, whether or not its
#: window uses them (VF2 verifies FTV candidates, GQL and SPA race on
#: NFV graphs): one table then shows all three on both kinds of data
SOLO_MATCHERS = ("VF2", "GQL", "SPA")


class _Replay:
    """One traced run's replays; fills ``self.out`` metric by metric."""

    def __init__(
        self, spec: Spec, sizes: Sizes, inputs: Inputs, log: SpanLog,
        scratch: str,
    ) -> None:
        self.spec = spec
        self.sizes = sizes
        self.inputs = inputs
        self.log = log
        self.scratch = scratch
        self.sample = inputs.arrivals()[:sizes.replay_sample]
        self.budget = Budget(max_steps=spec.budget)
        self.out: dict[str, float] = {}
        # tallies of the solo-matcher and race replays
        self.solo_steps = dict.fromkeys(SOLO_MATCHERS, 0)
        self.solo_wall = dict.fromkeys(SOLO_MATCHERS, 0.0)
        self.race_s = self.winner_s = 0.0
        self.race_steps = self.loser_steps = 0

    def timed(self, name: str, parent, fn, *args, **kw):
        gc.collect()
        return timed(self.log, name, parent, fn, *args, **kw)

    # -- datasets / graphs ---------------------------------------------

    def datasets(self) -> list:
        spec, scale = self.spec, self.sizes.scale
        with self.log.span("replay:datasets") as parent:
            if spec.nfv:
                graph, dt = self.timed(
                    "datasets.build", parent,
                    build_nfv_graph, spec.dataset, scale,
                )
                graphs = [graph]
            else:
                graphs, dt = self.timed(
                    "datasets.build", parent,
                    build_ftv_graphs, spec.dataset, scale,
                )
            self.out["datasets.build_s"] = dt
            copies = [fresh_copy(g) for g in graphs]
            _, dt = self.timed(
                "graphs.kernel", parent,
                lambda: [g.kernel() for g in copies],
            )
            self.out["graphs.kernel_build_s"] = dt
            self.out["graphs.kernel_vertices"] = sum(
                g.order for g in copies
            )
        return graphs

    # -- indexing (FTV) ------------------------------------------------

    def indexing(self, graphs: list) -> tuple:
        """Census, Grapes build, seal and sketch over the same shard
        partitions the catalog builds; returns ``(assignment, indexes)``
        for the query-level replays."""
        spec = self.spec
        assignment = assign_shards(graphs, spec.shards, "size_balanced")
        parts = [[graphs[g] for g in ids] for ids in assignment]
        depth = 3  # the catalog's max_path_length default
        with self.log.span("replay:indexing") as parent:
            def census() -> int:
                paths = 0
                for part in parts:
                    interner = LabelInterner(g.labels for g in part)
                    for g in part:
                        found = coded_path_census(
                            g, depth, interner.encode_vertices(g.labels),
                            with_locations=True,
                        )
                        paths += sum(found.counts.values())
                return paths

            paths, dt = self.timed(
                "indexing.coded_path_census", parent, census
            )
            self.out["indexing.census_s"] = dt
            self.out["indexing.census_paths"] = paths
            indexes, dt = self.timed(
                "indexing.GrapesIndex", parent,
                lambda: [
                    GrapesIndex(part, max_path_length=depth)
                    for part in parts
                ],
            )
            self.out["indexing.build_s"] = dt
            _, dt = self.timed(
                "indexing.warm", parent,
                lambda: [index.warm() for index in indexes],
            )
            self.out["indexing.seal_s"] = dt
        return assignment, indexes

    def sketch(self, entry, indexes: list) -> None:
        with self.log.span("replay:sketch") as parent:
            def build() -> None:
                router = ShardRouter(entry)
                for shard, index in enumerate(indexes):
                    router.refresh(shard, index)

            _, dt = self.timed("routing.ShardRouter", parent, build)
            self.out["indexing.sketch_build_s"] = dt

    # -- solo matchers and the race, shared by both kinds of data ------

    def _solo(self, engine, parent) -> MatchOutcome:
        """Drive each of ``SOLO_MATCHERS`` alone on ``engine(name)``;
        returns VF2's outcome (the FTV verify answer)."""
        for name in SOLO_MATCHERS:
            done, dt = timed(
                self.log, f"matching.{name.lower()}", parent,
                drive, engine(name), self.budget,
            )
            self.solo_steps[name] += done.steps
            self.solo_wall[name] += dt
            if name == "VF2":
                verdict = done
        return verdict

    def _race(self, engine, variants, parent) -> None:
        """One ``interleaved_race`` of ``variants``, then its winner
        again alone: the pair behind ``psi.race_overhead_ratio``."""
        race, dt = timed(
            self.log, "psi.interleaved_race", parent,
            interleaved_race, {v: engine(v) for v in variants},
            self.budget,
        )
        self.race_s += dt
        self.race_steps += race.work_steps
        self.loser_steps += (
            race.work_steps - race.per_variant_steps.get(race.winner, 0)
        )
        if race.winner is not None:
            _, dt = timed(
                self.log, "matching[winner]", parent,
                drive, engine(race.winner), self.budget,
            )
            self.winner_s += dt

    def _query_metrics(self, rewrite_s: float, window_matchers) -> None:
        out = self.out
        for name in SOLO_MATCHERS:
            out[f"matching.{name.lower()}_steps_per_s"] = (
                self.solo_steps[name] / self.solo_wall[name]
            )
        out["matching.verify_s"] = sum(
            self.solo_wall[name] for name in window_matchers
        )
        out["rewriting.rewrite_us_per_query"] = (
            rewrite_s / len(self.sample) * 1e6
        )
        out["psi.race_steps_per_s"] = self.race_steps / self.race_s
        out["psi.race_overhead_ratio"] = self.race_s / self.winner_s
        out["psi.race_overhead_base_s"] = self.winner_s
        out["psi.race_waste_ratio"] = self.loser_steps / self.race_steps

    # -- filter, verify, rewrite, race (FTV) ---------------------------

    def ftv_queries(self, assignment, indexes: list) -> None:
        """Per sampled query and shard: filter, rewrite, then per
        candidate graph the three matchers alone and the VF2 race."""
        spec, log = self.spec, self.log
        matchers = {name: make_matcher(name) for name in SOLO_MATCHERS}
        for index in indexes:
            for graph in index.graphs:
                for matcher in matchers.values():
                    matcher.prepare(graph)
        stats = [LabelStats.of_collection(ix.graphs) for ix in indexes]
        variants = [Variant("VF2", r) for r in spec.rewritings]
        filter_s = rewrite_s = 0.0
        candidates = answers = 0
        merge_inputs = []
        gc.collect()
        with log.span("replay:ftv-queries") as parent:
            for query in self.sample:
                outcomes = {}
                for shard, index in enumerate(indexes):
                    cands, dt = timed(
                        log, "indexing.filter", parent, index.filter, query
                    )
                    filter_s += dt
                    candidates += len(cands)
                    rewritten, dt = timed(
                        log, "rewriting.apply", parent,
                        lambda: {
                            v: make_rewriting(v.rewriting).apply(
                                query, stats[shard]
                            )
                            for v in variants
                        },
                    )
                    rewrite_s += dt
                    matched, steps = [], 0
                    for gid in cands:
                        graph = index.graphs[gid]
                        verdict = self._solo(
                            lambda name: matchers[name].engine(
                                matchers[name].prepare(graph), query,
                                max_embeddings=1, count_only=True,
                            ),
                            parent,
                        )
                        steps += verdict.steps
                        if verdict.found:
                            matched.append(gid)
                        self._race(
                            lambda v: matchers["VF2"].engine(
                                matchers["VF2"].prepare(graph),
                                rewritten[v].graph,
                                max_embeddings=1, count_only=True,
                            ),
                            variants, parent,
                        )
                    answers += len(matched)
                    found = MatchOutcome(
                        found=bool(matched), num_embeddings=len(matched)
                    )
                    found.matching_ids = tuple(matched)
                    outcomes[shard] = RaceOutcome(
                        winner=variants[0], outcome=found, steps=steps,
                        found=bool(matched), killed=False,
                        overhead_steps=0,
                        per_variant_steps={variants[0]: steps},
                    )
                merge_inputs.append(outcomes)
            id_maps = dict(enumerate(assignment))
            _, merge_s = timed(
                log, "sharding.merge_shard_outcomes", parent,
                lambda: [
                    merge_shard_outcomes(o, id_maps) for o in merge_inputs
                ],
            )
        n = len(self.sample)
        out = self.out
        out["indexing.filter_us_per_query"] = filter_s / n * 1e6
        out["indexing.filter_candidates_per_query"] = candidates / n
        out["indexing.filter_precision"] = (
            answers / candidates if candidates else 1.0
        )
        out["service.sharding.merge_us"] = merge_s / n * 1e6
        self._query_metrics(rewrite_s, ("VF2",))

    # -- rewrite, solo matchers, race (NFV) ----------------------------

    def nfv_queries(self, graph: LabeledGraph) -> None:
        """Per sampled query: rewrite, the three matchers alone on the
        stored graph, and the workload's own 4-wide race."""
        spec, log = self.spec, self.log
        psi = PsiNFV(graph)
        for name in SOLO_MATCHERS:
            psi.prepared(name)
        variants = variants_from_spec(spec.algorithms, spec.rewritings)
        cap = spec.options().max_embeddings
        rewrite_s = 0.0
        gc.collect()
        with log.span("replay:nfv-queries") as parent:
            for query in self.sample:
                rewritten, dt = timed(
                    log, "rewriting.apply", parent,
                    lambda: {
                        r: make_rewriting(r).apply(query, psi.stats)
                        for r in spec.rewritings
                    },
                )
                rewrite_s += dt

                def engine(v):
                    return psi.matcher(v.algorithm).engine(
                        psi.prepared(v.algorithm),
                        rewritten[v.rewriting].graph,
                        max_embeddings=cap, count_only=True,
                    )

                self._solo(
                    lambda name: engine(Variant(name, spec.rewritings[0])),
                    parent,
                )
                self._race(engine, variants, parent)
        self._query_metrics(rewrite_s, spec.algorithms)

    # -- canon + result cache ------------------------------------------

    def canon_cache(self) -> None:
        log = self.log
        copies = [fresh_copy(q) for q in self.sample]
        gc.collect()
        with log.span("replay:canon-cache") as parent:
            _, canon_s = timed(
                log, "canon.canonical_query_key", parent,
                lambda: [canonical_query_key(q) for q in copies],
            )
            cache = ResultCache()
            keys = [cache.key_for(q, ("replay",)) for q in copies]
            result = CachedResult(
                found=True, num_embeddings=1, steps=1, winner=None,
                per_variant_steps=(),
            )
            for key in keys:
                cache.store(key, result)
            _, lookup_s = timed(
                log, "cache.lookup", parent,
                lambda: [cache.lookup(key) for key in keys],
            )
        n = len(copies)
        self.out["service.canon.key_us"] = canon_s / n * 1e6
        self.out["service.cache.lookup_us"] = lookup_s / n * 1e6

    # -- catalog + sharding + store ------------------------------------

    def catalog_store(self):
        """Plain and sharded catalog loads, accounting, store publish,
        verify and boot, codec and catalog mutations; returns the
        loaded (sharded where the workload shards) catalog entry for
        the sketch replay."""
        spec, scale = self.spec, self.sizes.scale
        kw = {"algorithms": spec.algorithms} if spec.nfv else {}
        out = self.out
        root = os.path.join(self.scratch, "replay-store")
        with self.log.span("replay:catalog-store") as parent:
            plain = DatasetCatalog()
            entry, dt = self.timed(
                "catalog.load", parent,
                plain.load, spec.dataset, scale=scale, **kw,
            )
            out["service.catalog.load_s"] = dt

            def accounting() -> None:
                for g in entry.graphs:
                    approx_deep_bytes(g.kernel())
                if entry.ftv_index is not None:
                    approx_deep_bytes(entry.ftv_index)
                entry.memory_report()

            _, dt = self.timed(
                "catalog.approx_deep_bytes", parent, accounting
            )
            out["service.catalog.memory_accounting_s"] = dt
            catalog, loaded = plain, entry
            if spec.shards > 1:
                catalog = ShardedCatalog(num_shards=spec.shards)
                loaded, dt = self.timed(
                    "sharding.load", parent,
                    catalog.load, spec.dataset, scale=scale, **kw,
                )
                out["service.sharding.load_s"] = dt
            try:
                report, dt = self.timed(
                    "store.write_catalog", parent,
                    StoreWriter(root).write_catalog, catalog,
                )
                out["store.publish_s"] = dt
                out["store.bytes_written"] = report["bytes"]
                _, dt = self.timed(
                    "store.verify_all", parent,
                    StoreReader(root).verify_all,
                )
                out["store.verify_all_s"] = dt
                booted, dt = self.timed(
                    "service.load_dataset[store]", parent,
                    build_service, spec, self.sizes, self.inputs,
                    store=root,
                )
                out["store.boot_s"] = dt
                out["store.bytes_read"] = (
                    booted.store_metrics()["bytes_read"]
                )
            finally:
                shutil.rmtree(root, ignore_errors=True)
            self._codec(entry, parent)
            if not spec.nfv:
                self._mutate_catalog(plain, parent)
        return loaded

    def _codec(self, entry, parent) -> None:
        graphs = entry.graphs
        index = entry.ftv_index

        def encode() -> list:
            blobs = [encode_graphs(graphs)]
            if index is not None:
                blobs.append(encode_index(index))
            return blobs

        blobs, dt = self.timed("codec.encode", parent, encode)
        self.out["store.codec.encode_s"] = dt

        def decode() -> None:
            decoded = decode_graphs(blobs[0])
            if index is not None:
                decode_index(
                    blobs[1], decoded, "Grapes", index.max_path_length
                )

        _, dt = self.timed("codec.decode", parent, decode)
        self.out["store.codec.decode_s"] = dt

    def _mutate_catalog(self, catalog: DatasetCatalog, parent) -> None:
        gid, self.out["service.catalog.add_graph_s"] = self.timed(
            "catalog.add_graph", parent,
            catalog.add_graph, self.spec.dataset,
            newcomer(self.sizes.scale, POPULATION_SEED - 1),
        )
        _, self.out["service.catalog.remove_graph_s"] = self.timed(
            "catalog.remove_graph", parent,
            catalog.remove_graph, self.spec.dataset, gid,
        )

    # -- journal -------------------------------------------------------

    def journal(self, inputs: Inputs) -> None:
        adds = [op.graph for op in inputs.mutations if op.graph is not None]
        root = os.path.join(self.scratch, "replay-journal")
        journal = MutationJournal(root)
        waits = []
        try:
            with self.log.span("replay:journal") as parent:
                for seq in range(JOURNAL_RECORDS):
                    record = JournalRecord(
                        seq=seq, epoch=0, op="add_graph",
                        dataset=self.spec.dataset, graph_id=seq, shard=0,
                        graph_json=graph_to_json(adds[seq % len(adds)]),
                    )
                    _, dt = timed(
                        self.log, "journal.append", parent,
                        journal.append, record,
                    )
                    waits.append(dt)
                size = os.path.getsize(journal.path)
                _, dt = self.timed(
                    "journal.recover", parent, journal.recover
                )
            self.out["store.journal.append_us_p50"] = (
                statistics.median(waits) * 1e6
            )
            self.out["store.journal.bytes_per_record"] = (
                size / JOURNAL_RECORDS
            )
            self.out["store.journal.recover_s"] = dt
        finally:
            shutil.rmtree(root, ignore_errors=True)


def replay_layers(
    spec: Spec, sizes: Sizes, inputs: Inputs, log: SpanLog, scratch: str
) -> dict:
    """Run every replay whose layer serves ``spec``; returns the layer
    metrics they measured."""
    replay = _Replay(spec, sizes, inputs, log, scratch)
    graphs = replay.datasets()
    entry = replay.catalog_store()
    if spec.nfv:
        replay.nfv_queries(graphs[0])
    else:
        assignment, indexes = replay.indexing(graphs)
        if spec.shards > 1:
            replay.sketch(entry, indexes)
        replay.ftv_queries(assignment, indexes)
    replay.canon_cache()
    if inputs.mutations:
        replay.journal(inputs)
    return replay.out


# ----------------------------------------------------------------------
# what the traced window itself shows
# ----------------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def window_layers(window: Window, log: SpanLog) -> dict:
    """Layer metrics read off the traced window: span self times and
    the exact counters of the service(s) that served it."""
    totals = log.totals(under="window")
    idle = {"self_s": 0.0, "calls": 0}
    submit = totals.get("service.submit", idle)
    pump = totals.get("service.pump", idle)
    counts = window.counts
    steps = counts["work_steps"]
    work = [w for w in counts["pool_work"] if w]
    return {
        "service.submit_s": submit["self_s"],
        "service.pump_s": pump["self_s"],
        "service.pump_calls": pump["calls"],
        "service.work_steps": steps,
        "service.steps_per_s": _ratio(
            steps - window.quiesce_steps, pump["self_s"]
        ),
        "service.cache.hit_ratio": _ratio(
            counts["cache_hits"], counts["cache_lookups"]
        ),
        "service.admission.rejected": counts["rejected"],
        "service.sharding.fanout_waste_ratio": _ratio(
            counts["fanout_waste"], steps
        ),
        "service.routing.pruned_ratio": _ratio(
            counts["shards_pruned"], counts["routed"] * counts["shards"]
        ),
        "service.dispatcher.pool_skew": (
            max(work) / min(work) if work else 0.0
        ),
        "store.checkpoint_s": window.checkpoint_s,
    }


def door_layers(harness: Harness, window: Window, log: SpanLog) -> dict:
    """door-hot only: the same stream replayed one query at a time on
    an in-process twin gives the service-side spans the socket hides
    and the base of the front door's overhead; ``GET /stats`` is then
    timed against the twin's own door."""
    twin = build_service(harness.spec, harness.sizes, harness.inputs)
    (tenant, stream), = harness.inputs.streams.items()
    direct = []
    with log.span("twin") as parent:
        for query in stream:
            start = perf_counter()
            answer(twin, harness.spec, query, tenant, log, parent)
            direct.append(perf_counter() - start)
    totals = log.totals(under="twin")
    pump_s = totals["service.pump"]["self_s"]
    wire = statistics.median(row[2] for row in window.served)
    waits = []
    with BackgroundFrontDoor(twin) as door:
        client = ObsClient(*door.address)
        for _ in range(20):
            _, dt = timed(log, "obs.client.stats", None, client.stats)
            waits.append(dt)
    return {
        "service.submit_s": totals["service.submit"]["self_s"],
        "service.pump_s": pump_s,
        "service.pump_calls": totals["service.pump"]["calls"],
        "service.steps_per_s": _ratio(
            service_counts(twin)["work_steps"], pump_s
        ),
        "obs.server.query_overhead_ms": (
            (wire - statistics.median(direct)) * 1e3
        ),
        "obs.server.stats_ms_p50": statistics.median(waits) * 1e3,
    }
