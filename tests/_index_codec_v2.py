"""The warm-index payload as the store wrote it in PRs 18-20.

``columns+zlib/2``: the columns the codec in ``src/`` still writes,
under the tag before its current one, and — for an index whose label
codes were not the sorted label set of its own graphs — with the code
order spelled out in the blob header (``labels``), because every index
interned for itself then and the dataset record held no label table.
The codec now writes ``columns+zlib/3`` and refuses this tag; the
encoder lives on here only so the upgrade drill in
``tests/test_store.py`` can put real parent-commit bytes under a
manifest.  There is deliberately no decoder.
"""

from __future__ import annotations

import json
import zlib

from repro.indexing import LabelInterner
from repro.store.codec import encode_index


def encode_index_v2(index) -> bytes:
    head, _, body = zlib.decompress(encode_index(index)).partition(b"\n")
    header = {**json.loads(head), "codec": "columns+zlib/2"}
    code_of = index.interner.code_of
    if LabelInterner(g.labels for g in index.graphs).code_of != code_of:
        header["labels"] = sorted(code_of, key=code_of.get)
    return zlib.compress(json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n" + body, 4)
