"""The warm-index payload as the store wrote it in PR 21.

``columns+zlib/3``: the columns the codec in ``src/`` still writes plus
two it no longer does — ``mask_len`` and ``mask``, every Grapes
posting's location bitmask as its own little-endian bytes — from when
a build censused every stored graph with locations and the blob
shipped them.  The index now derives a graph's locations on first
verify and stores none, so this encoder takes the masks from the
reference census (``tests/_filter_reference.py:stored_locations``).
The codec writes ``columns+zlib/4`` and refuses this tag; the encoder
lives on here only so the upgrade drill in ``tests/test_store.py`` can
put real parent-commit bytes under a manifest.  There is deliberately
no decoder.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import chain

from repro.store.codec import index_method

from ._filter_reference import stored_locations

COLUMNS_V3 = (
    ("path_len", "B"), ("code", "I"), ("row_postings", "I"),
    ("graph_id", "I"), ("count", "I"), ("mask_len", "I"), ("mask", "s"),
)


def encode_index_v3(index) -> bytes:
    method = index_method(index)
    stored = stored_locations(index) if method == "Grapes" else {}
    postings = index.trie.postings
    paths = sorted(postings)
    row_postings, gids, counts, masks = [], [], [], []
    for path in paths:
        row = sorted(postings[path].items())
        row_postings.append(len(row))
        gids += [gid for gid, _ in row]
        counts += [count for _, count in row]
        masks += [stored.get((path, gid), 0) for gid, _ in row]
    mask_lens = [(mask.bit_length() + 7) >> 3 for mask in masks]
    values = (
        list(map(len, paths)), list(chain.from_iterable(paths)),
        row_postings, gids, counts, mask_lens,
        b"".join(m.to_bytes(n, "little") for m, n in zip(masks, mask_lens)),
    )
    columns = [
        column if code == "s"
        else struct.pack(f"<{len(column)}{code}", *column)
        for (_, code), column in zip(COLUMNS_V3, values)
    ]
    header = {
        "kind": "index",
        "codec": "columns+zlib/3",
        "method": method,
        "max_path_length": index.max_path_length,
        "columns": {
            name: len(column)
            for (name, _), column in zip(COLUMNS_V3, columns)
        },
    }
    if index.tombstones:
        header["tombstones"] = sorted(index.tombstones)
    return zlib.compress(json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n" + b"".join(columns), 4)
