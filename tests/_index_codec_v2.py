"""The warm-index payload as the store wrote it in PRs 18-20.

``columns+zlib/2``: the columns of ``columns+zlib/3`` (location masks
included — ``tests/_index_codec_v3.py``) under the tag before it, and —
for an index whose label codes were not the sorted label set of its
own graphs — with the code order spelled out in the blob header
(``labels``), because every index interned for itself then and the
dataset record held no label table.  The codec refuses this tag; the
encoder lives on here only so the upgrade drill in
``tests/test_store.py`` can put real old bytes under a manifest.  There
is deliberately no decoder.
"""

from __future__ import annotations

from repro.indexing import LabelInterner

from ._index_codec_v3 import encode_index_v3


def encode_index_v2(index) -> bytes:
    extra = {}
    code_of = index.interner.code_of
    if LabelInterner(g.labels for g in index.graphs).code_of != code_of:
        extra["labels"] = sorted(code_of, key=code_of.get)
    return encode_index_v3(index, "columns+zlib/2", **extra)
