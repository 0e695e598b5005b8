"""Blob payload codecs: frozen graphs and warm FTV indexes ↔ bytes.

Both payloads are deterministic — the same warm state always encodes
to the same bytes and therefore the same content address — which is
what makes "same config → same store" testable.  Neither depends on
the host: JSON is canonical (sorted keys, ints and strings only) and
every binary column states its byte order.

Graphs round-trip through :func:`repro.graphs.io.graph_to_json`, the
faithful shape (edge labels and int/str label types preserved) the
mutation journal's records share, as canonical JSON under zlib
(:data:`CODEC`).

A warm FTV index is its posting map in columns
(:data:`INDEX_CODEC`): one line of canonical JSON (``kind``,
``codec``, ``method``, ``max_path_length``, the byte length of each
column, and ``tombstones`` when graphs were removed) followed by the
columns of :data:`INDEX_COLUMNS` back to back, the whole under zlib.
Rows are sorted by coded path and postings by graph id.  A posting is
its graph id and its count: location masks are no part of the warm
state — Grapes' verifier derives a stored graph's the first time it is
asked about that graph — so the bytes never depend on whether anybody
verified, and a restored index starts unlocated like a built one.
Restoring installs the rows into the posting map directly
(:meth:`repro.indexing.base.FTVIndex._restore`) — crucially *not*
through ``SuffixTrie.insert``, whose suffix expansion would double
count rows the dump already enumerates.  The rows are written in the
label codes of the collection the index belongs to — its one
:class:`~repro.indexing.features.LabelInterner`, which the dataset
record stores once (``labels``, the code order) for all of the
collection's index blobs — and are decoded into whichever interner the
caller hands :func:`decode_index`; the payload itself names no label.

Compatibility is per payload tag.  A blob whose tag this module does
not write fails :func:`decode_index` as :class:`CodecError`, which the
reader treats like any corrupt blob: quarantine, rebuild the index in
process over the restored graphs, and let the next checkpoint write
the current format.  There is one decoder per payload, never two.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import accumulate, chain
from operator import lt

from ..graphs.io import graph_from_json, graph_to_json
from ..indexing import FTV_INDEX_CLASSES
from .blobs import StoreError

__all__ = [
    "CODEC",
    "INDEX_CODEC",
    "INDEX_COLUMNS",
    "CodecError",
    "encode_graphs",
    "decode_graphs",
    "encode_index",
    "decode_index",
]

#: graphs payload format tag, embedded in the blob for self-description
CODEC = "json+zlib/1"

#: warm-index payload format tag
INDEX_CODEC = "columns+zlib/4"

#: The index body, in order: ``(column, struct item code)``, every item
#: little-endian and unsigned.  Per row (one coded path with
#: postings): the path's length in labels, then its label codes, and
#: how many postings follow; per posting: the graph id and the
#: occurrence count.  A value that does not fit its item raises at
#: encode — nothing wraps.
INDEX_COLUMNS = (
    ("path_len", "B"),
    ("code", "I"),
    ("row_postings", "I"),
    ("graph_id", "I"),
    ("count", "I"),
)

#: zlib level of the index payload, a constant chosen from one
#: measurement (the table in docs/STORE.md, taken again when the
#: location masks left the payload): the columns are small ints and
#: zlib is a fifth of an encode, so neighbouring levels differ by a
#: millisecond or two per blob; 3 is slower and larger than 4, each
#: step up to 4 buys 4-10 KB per millisecond and each step past it
#: 1.4 KB or less.
_INDEX_ZLIB_LEVEL = 4


class CodecError(StoreError):
    """A payload the codec cannot read back or cannot represent.

    Raised over checksummed bytes it means the manifest pins a blob
    this codec never wrote, and is treated as corruption.
    """


def _check_envelope(obj, kind: str, codec: str) -> None:
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise CodecError(
            f"blob is not a {kind} payload: "
            f"{obj.get('kind') if isinstance(obj, dict) else type(obj)}"
        )
    if obj.get("codec") != codec:
        raise CodecError(f"unknown payload codec {obj.get('codec')!r}")


def _canonical_json(obj: dict) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------

def encode_graphs(graphs) -> bytes:
    return zlib.compress(_canonical_json({
        "kind": "graphs",
        "codec": CODEC,
        "graphs": [graph_to_json(g) for g in graphs],
    }), 6)


def decode_graphs(data: bytes) -> list:
    try:
        obj = json.loads(zlib.decompress(data).decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise CodecError(f"graphs blob undecodable: {exc}") from exc
    _check_envelope(obj, "graphs", CODEC)
    try:
        return [graph_from_json(doc) for doc in obj["graphs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"graphs payload malformed: {exc}") from exc


# ----------------------------------------------------------------------
# warm FTV indexes
# ----------------------------------------------------------------------

_METHOD_OF_CLASS = {"GrapesIndex": "Grapes", "GGSXIndex": "GGSX"}


def index_method(index) -> str:
    """The catalog-facing method token of an index instance."""
    name = type(index).__name__
    try:
        return _METHOD_OF_CLASS[name]
    except KeyError:
        raise StoreError(f"unsupported FTV index class {name}") from None


def _pack_column(name: str, code: str, values: list) -> bytes:
    try:
        return struct.pack(f"<{len(values)}{code}", *values)
    except struct.error as exc:
        raise CodecError(
            f"index column {name!r} cannot hold its values: {exc}"
        ) from exc


def encode_index(index) -> bytes:
    # flat int lists and per-row temporaries only: a checkpoint runs
    # inside a serving process, and thousands of containers kept alive
    # to the end of the call would push its heap into a full collection
    postings = index.trie.postings
    paths = sorted(postings)
    row_postings: list[int] = []
    gids: list[int] = []
    counts: list[int] = []
    for path in paths:
        row = postings[path]
        ids = sorted(row)
        row_postings.append(len(ids))
        gids += ids
        counts += [row[gid] for gid in ids]
    values = (
        list(map(len, paths)),
        list(chain.from_iterable(paths)),
        row_postings,
        gids,
        counts,
    )
    columns = [
        _pack_column(name, code, column)
        for (name, code), column in zip(INDEX_COLUMNS, values)
    ]
    header = {
        "kind": "index",
        "codec": INDEX_CODEC,
        "method": index_method(index),
        "max_path_length": index.max_path_length,
        "columns": {
            name: len(column)
            for (name, _), column in zip(INDEX_COLUMNS, columns)
        },
    }
    if index.tombstones:
        header["tombstones"] = sorted(index.tombstones)
    return zlib.compress(
        b"".join([_canonical_json(header), b"\n", *columns]),
        _INDEX_ZLIB_LEVEL,
    )


def _split_columns(header: dict, body: bytes) -> list:
    """The body cut into :data:`INDEX_COLUMNS` and unpacked.

    Every disagreement between the header's byte lengths, the item
    sizes and the body is a :class:`CodecError`.
    """
    lengths = header.get("columns")
    if (
        not isinstance(lengths, dict)
        or sorted(lengths) != sorted(name for name, _ in INDEX_COLUMNS)
        or not all(type(n) is int and n >= 0 for n in lengths.values())
        or sum(lengths.values()) != len(body)
    ):
        raise CodecError(
            f"index columns {lengths!r} do not describe a "
            f"{len(body)}-byte body"
        )
    out = []
    start = 0
    for name, code in INDEX_COLUMNS:
        chunk = body[start:start + lengths[name]]
        start += lengths[name]
        items, torn = divmod(len(chunk), struct.calcsize(f"<{code}"))
        if torn:
            raise CodecError(
                f"index column {name!r} ends {torn} bytes into an item"
            )
        out.append(struct.unpack(f"<{items}{code}", chunk))
    return out


def _slices(lengths) -> zip:
    """``(start, end)`` of consecutive runs of the given lengths."""
    return zip(accumulate(lengths, initial=0), accumulate(lengths))


def _decode_rows(header: dict, body: bytes, num_graphs: int) -> list:
    """The payload's ``(coded path, {graph_id: count})`` rows — items
    of :attr:`repro.indexing.trie.PathTrie.postings` — after every
    cross-column check."""
    path_lens, codes, row_postings, gids, counts = _split_columns(
        header, body
    )
    if not (
        len(path_lens) == len(row_postings)
        and sum(path_lens) == len(codes)
        and sum(row_postings) == len(gids) == len(counts)
    ):
        raise CodecError(
            f"index columns disagree on their item counts: "
            f"{header['columns']}"
        )
    if gids and max(gids) >= num_graphs:
        raise CodecError(
            f"index blob posts graph {max(gids)}; the partition holds "
            f"{num_graphs}"
        )
    paths = [codes[a:b] for a, b in _slices(path_lens)]
    if not all(map(lt, paths, paths[1:])):
        raise CodecError("index rows are not in ascending path order")
    rows = []
    for path, (a, b) in zip(paths, _slices(row_postings)):
        postings = dict(zip(gids[a:b], counts[a:b]))
        if len(postings) != b - a:
            raise CodecError(f"index row {path} repeats a graph id")
        rows.append((path, postings))
    return rows


def decode_index(
    data: bytes, graphs, ftv_method: str, max_path_length: int,
    interner=None,
):
    """Reconstruct a warm FTV index from a verified blob.

    ``interner`` is the label code space the rows were written in — the
    collection's, which the restored index then shares; without one the
    index interns the sorted label set of ``graphs``, which is that
    code space for a collection no add ever brought a label to.

    The payload's method and path length must match the requested
    configuration — a mismatch means the manifest lied about this blob
    (or the blob was swapped), so it surfaces as :class:`CodecError`
    and the caller quarantines + rebuilds.  So does a blob of any other
    format generation, a column that disagrees with its neighbours,
    a posting for a graph the partition does not hold and a path over a
    label code the interner does not assign.
    """
    try:
        head, _, body = zlib.decompress(data).partition(b"\n")
        header = json.loads(head.decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise CodecError(f"index blob undecodable: {exc}") from exc
    _check_envelope(header, "index", INDEX_CODEC)
    if header.get("method") != ftv_method:
        raise CodecError(
            f"index blob is {header.get('method')!r}, requested "
            f"{ftv_method!r}"
        )
    if header.get("max_path_length") != max_path_length:
        raise CodecError(
            f"index blob max_path_length "
            f"{header.get('max_path_length')!r}"
            f" != requested {max_path_length}"
        )
    cls = FTV_INDEX_CLASSES.get(ftv_method)
    if cls is None:
        raise CodecError(f"unknown FTV method {ftv_method!r}")
    rows = _decode_rows(header, body, len(graphs))
    index = cls(
        graphs,
        max_path_length=max_path_length,
        restore=rows,
        interner=interner,
    )
    top = max(chain.from_iterable(path for path, _ in rows), default=-1)
    if top >= len(index.interner):
        raise CodecError(
            f"index blob paths use label code {top}; the collection "
            f"assigns {len(index.interner)}"
        )
    tombstones = header.get("tombstones")
    if tombstones:
        try:
            index.tombstones = {int(gid) for gid in tombstones}
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"index payload tombstones malformed: {exc}"
            ) from exc
    return index
