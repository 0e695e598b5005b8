"""The store layout the unsharded service wrote through PR 22.

``layout = {"sharded": False}``, one index blob per collection under
the key ``"*"``, no ``assignment`` / ``home_shard`` in the dataset
record.  Every served collection is now N >= 1 shards and the writer
in ``src/`` writes the one sharded layout (a one-shard collection's
blob key is ``"0"``); no reader honors this one any more.  It is frozen
here only so ``tests/test_store.py`` can put a real parent-commit store
under a service and drill what happens to it: one ``layout_mismatch``,
one fresh warm, the next checkpoint writes the one layout.  There is
deliberately no reader.
"""

from __future__ import annotations

from repro.service.planner import SERVED_FTV_METHOD, SERVED_PATH_LENGTH
from repro.store import BlobStore, Manifest, write_manifest
from repro.store.codec import (
    CODEC,
    encode_graphs,
    encode_index,
    index_method,
)


def write_unsharded_store(root: str, catalog, journal_seq=None) -> Manifest:
    """``StoreWriter(root).write_catalog(catalog)`` as of PR 22, for a
    one-shard ``ShardedCatalog`` of ``load()``-ed datasets."""
    blobs = BlobStore(root)
    layout = {"sharded": False}
    if journal_seq is not None:
        layout["journal_seq"] = int(journal_seq)
    datasets = {}
    for name in catalog.datasets():
        entry = catalog.get(name)
        scale, algorithms = entry.load_config
        rec = {
            "kind": entry.kind,
            "scale": scale,
            "algorithms": list(algorithms),
            "ftv_method": SERVED_FTV_METHOD,
            "max_path_length": SERVED_PATH_LENGTH,
            "codec": CODEC,
            "graphs": {
                **blobs.put(encode_graphs(entry.graphs)).as_dict(),
                "count": len(entry.graphs),
            },
            "indexes": {},
        }
        if entry.kind == "ftv":
            index = entry.shard_entry(0).ftv_index
            rec["labels"] = index.interner.labels()
            rec["indexes"]["*"] = blobs.put(encode_index(index)).as_dict()
            rec["ftv_method"] = index_method(index)
            if entry.tombstones:
                rec["tombstones"] = sorted(entry.tombstones)
        datasets[name] = rec
    manifest = Manifest(epoch=0, layout=layout, datasets=datasets)
    write_manifest(root, manifest)
    return manifest
