"""StoreWriter: persist a warm catalog as checksummed blobs + manifest.

Write order is the crash-safety argument: every blob is published
(atomically, content-addressed) *before* the manifest that references
it, and the manifest itself is published last through the same atomic
rename.  At no point does a complete manifest reference an incomplete
blob, so a crash at any byte leaves either the previous store intact
or a pile of reader-invisible temp files — a partially written store
is indistinguishable from no store.

Epochs are monotone: re-warming into an existing store bumps the
manifest epoch (old blobs that are no longer referenced simply stay —
content addressing makes them harmless; ``repro warm`` reports them).
"""

from __future__ import annotations

from typing import Optional

from .blobs import BlobStore
from .codec import CODEC, encode_graphs, encode_index
from .manifest import (
    Manifest,
    StoreError,
    load_manifest,
    write_manifest,
)

__all__ = ["StoreWriter"]


class StoreWriter:
    """Serialize a warm catalog to disk, in the one store layout.

    ``fail_manifest_after`` is the torn-write fault hook: the manifest
    write "crashes" after that many bytes (blobs are already
    published), proving the atomicity claim in tests and the
    corruption drill.
    """

    def __init__(
        self,
        root: str,
        *,
        fail_manifest_after: Optional[int] = None,
    ) -> None:
        self.root = str(root)
        self.blobs = BlobStore(self.root)
        self.fail_manifest_after = fail_manifest_after

    # ------------------------------------------------------------------
    def write_catalog(
        self, catalog, *, journal=None, journal_seq=None
    ) -> dict:
        """Persist every persistable dataset of ``catalog``.

        ``catalog`` is a service's
        :class:`~repro.service.sharding.ShardedCatalog`, or a bare
        :class:`~repro.service.catalog.DatasetCatalog`, which is written
        as the one shard it amounts to (``Service(shards=1, store=...)``
        restores from it).  Returns a JSON-ready summary (datasets
        written, blob count/bytes, epoch, skips).

        When a mutation ``journal`` (or an explicit ``journal_seq``
        high-water) rides along, the manifest's layout records the
        journal seq this checkpoint covers *before* it is published,
        and the journal is truncated only *after* the atomic manifest
        rename.  Replay skips records at or below the recorded seq, so
        every crash window is safe: before the rename the old manifest
        (with the old seq) still governs and the suffix replays; after
        the rename but before the truncate, the new seq already covers
        every journaled record and replay is a no-op; after the
        truncate there is nothing to replay.
        """
        layout, datasets, skipped = self._records(catalog)
        if journal is not None or journal_seq is not None:
            layout["journal_seq"] = (
                int(journal_seq)
                if journal_seq is not None
                else journal.tail_seq()
            )
        try:
            epoch = load_manifest(self.root).epoch + 1
        except StoreError:
            epoch = 0
        manifest = Manifest(
            epoch=epoch, layout=layout, datasets=datasets
        )
        path = write_manifest(
            self.root, manifest, fail_after=self.fail_manifest_after
        )
        if journal is not None:
            # manifest is durable; the journaled prefix it covers is
            # now redundant and the journal restarts empty
            journal.checkpoint()
        written = self.blobs.addresses()
        referenced = {
            ref["address"]
            for rec in datasets.values()
            for ref in (
                [rec["graphs"]] + list(rec["indexes"].values())
            )
        }
        summary = {
            "path": path,
            "epoch": epoch,
            "datasets": sorted(datasets),
            "skipped_registered": skipped,
            "blobs": len(written),
            "unreferenced_blobs": sorted(
                set(written) - referenced
            ),
            "bytes": sum(
                ref["length"]
                for rec in datasets.values()
                for ref in (
                    [rec["graphs"]] + list(rec["indexes"].values())
                )
            ),
        }
        if "journal_seq" in layout:
            summary["journal_seq"] = layout["journal_seq"]
        return summary

    # ------------------------------------------------------------------
    def _records(self, catalog) -> tuple[dict, dict, list]:
        """``(layout, dataset records, skipped names)`` — the one store
        layout: a collection is N >= 1 shards, one index blob each,
        keyed by shard number."""
        from ..service.catalog import DatasetCatalog

        plain = isinstance(catalog, DatasetCatalog)
        layout = {
            "sharded": True,
            "num_shards": 1 if plain else catalog.num_shards,
            "assignment": (
                "size_balanced" if plain else catalog.assignment_strategy
            ),
            "replicas": 1 if plain else catalog.replicas,
        }
        datasets: dict = {}
        skipped: list[str] = []
        for name in catalog.datasets():
            entry = catalog.get(name)
            if plain:
                # a bare catalog is one shard holding every graph it
                # loaded: what ``Service(shards=1, store=...)`` boots
                if entry.load_config[0] == "registered":
                    # registered entries have no named builder to fall
                    # back to on corruption; only load()-originated
                    # datasets are restorable, so only they are
                    # persisted
                    skipped.append(name)
                    continue
                assignment = (tuple(range(len(entry.graphs))),)
                home_shard = 0
            else:
                assignment = entry.assignment
                home_shard = entry.home_shard
            scale, algorithms, ftv_method, max_path_length = (
                entry.load_config
            )
            rec = self._dataset_record(
                kind=entry.kind,
                scale=scale,
                algorithms=algorithms,
                ftv_method=ftv_method,
                max_path_length=max_path_length,
                graphs=entry.graphs,
            )
            rec["assignment"] = [list(ids) for ids in assignment]
            rec["home_shard"] = home_shard
            if entry.tombstones:
                # collection state, not index state: the global ids a
                # remove_graph retired (per-shard blobs carry only
                # their local projections), kept outside the blobs so
                # a corrupt blob's in-process rebuild can re-retire
                # them instead of resurrecting them
                rec["tombstones"] = sorted(entry.tombstones)
            if entry.kind == "ftv":
                parts = [(0, entry)] if plain else [
                    (shard, entry.shard_entry(shard))
                    for shard in entry.involved_shards()
                ]
                # every partition's index is in the collection's one
                # label code space
                rec["labels"] = parts[0][1].ftv_index.interner.labels()
                for shard, part in parts:
                    rec["indexes"][str(shard)] = self.blobs.put(
                        encode_index(part.ftv_index)
                    ).as_dict()
            datasets[name] = rec
        return layout, datasets, skipped

    def _dataset_record(
        self, *, kind, scale, algorithms, ftv_method,
        max_path_length, graphs,
    ) -> dict:
        graphs_ref = self.blobs.put(encode_graphs(graphs))
        return {
            "kind": kind,
            "scale": scale,
            "algorithms": list(algorithms),
            "ftv_method": ftv_method,
            "max_path_length": max_path_length,
            "codec": CODEC,
            "graphs": {
                **graphs_ref.as_dict(), "count": len(graphs),
            },
            "indexes": {},
        }
