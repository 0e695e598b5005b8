"""The warm-index payload as the store wrote it up to PR 17.

``json+zlib/1``: the trie's postings as a sorted nested JSON list,
every location set spelled out as a list of vertex ids.  The codec in
``src/`` writes a columnar payload and has no reader for this layout;
the encoder lives on here only so the upgrade drill in
``tests/test_store.py`` can put a real old-format blob under a
manifest.  There is deliberately no decoder.
"""

from __future__ import annotations

import json
import zlib

from repro.indexing import LabelInterner, location_vertices
from repro.store.codec import index_method

from ._filter_reference import stored_locations


def encode_index_v1(index) -> bytes:
    # a build stored every Grapes posting's locations then
    stored = (
        stored_locations(index) if index_method(index) == "Grapes" else {}
    )
    payload = {
        "kind": "index",
        "codec": "json+zlib/1",
        "method": index_method(index),
        "max_path_length": index.max_path_length,
        "postings": sorted(
            [list(seq), [
                [gid, p.count, location_vertices(stored.get((seq, gid), 0))]
                for gid, p in sorted(postings.items())
            ]]
            for seq, postings in index.trie.iter_postings()
        ),
    }
    if index.tombstones:
        payload["tombstones"] = sorted(index.tombstones)
    code_of = index.interner.code_of
    if LabelInterner(g.labels for g in index.graphs).code_of != code_of:
        payload["labels"] = sorted(code_of, key=code_of.get)
    return zlib.compress(json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8"), 6)
