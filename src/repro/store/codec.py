"""Blob payload codecs: frozen graphs and warm FTV indexes ↔ bytes.

Everything is canonical JSON (sorted keys, no float ambiguity — the
payloads are ints and strings only) compressed with zlib, so the same
warm state always encodes to the same bytes and therefore the same
content address.  That determinism is what makes "same config → same
store" testable.

Graphs round-trip through :func:`repro.graphs.io.graph_to_json`, the
faithful shape (edge labels and int/str label types preserved).

Warm FTV indexes serialize as their trie's posting dump: a sorted list
of ``[coded path, [[graph_id, count, [locations...]], ...]]`` rows.
Restoring re-inserts the rows through the **raw** ``PathTrie.insert``
(see :meth:`repro.indexing.base.FTVIndex._restore`) — crucially *not*
through ``SuffixTrie.insert``, whose suffix expansion would double
count rows the dump already enumerates.  Label codes are not stored:
the :class:`~repro.indexing.features.LabelInterner` assigns codes
deterministically from the sorted label set of the restored graphs,
so a coded dump made against the same graphs decodes against the
freshly derived interner bit-for-bit.
"""

from __future__ import annotations

import json
import zlib

from ..graphs.io import graph_from_json, graph_to_json
from ..indexing.features import location_vertices
from .blobs import StoreError

__all__ = [
    "CODEC",
    "CodecError",
    "encode_graphs",
    "decode_graphs",
    "encode_index",
    "decode_index",
    "dump_postings",
]

#: payload format tag, embedded in every blob for self-description
CODEC = "json+zlib/1"


class CodecError(StoreError):
    """A checksummed blob failed to decode (treated as corruption)."""


def _pack(obj: dict) -> bytes:
    raw = json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return zlib.compress(raw, 6)


def _unpack(data: bytes, kind: str) -> dict:
    try:
        obj = json.loads(zlib.decompress(data).decode("utf-8"))
    except (zlib.error, ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"{kind} blob undecodable: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise CodecError(
            f"blob is not a {kind} payload: "
            f"{obj.get('kind') if isinstance(obj, dict) else type(obj)}"
        )
    if obj.get("codec") != CODEC:
        raise CodecError(f"unknown payload codec {obj.get('codec')!r}")
    return obj


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------

def encode_graphs(graphs) -> bytes:
    return _pack({
        "kind": "graphs",
        "codec": CODEC,
        "graphs": [graph_to_json(g) for g in graphs],
    })


def decode_graphs(data: bytes) -> list:
    obj = _unpack(data, "graphs")
    try:
        return [graph_from_json(doc) for doc in obj["graphs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"graphs payload malformed: {exc}") from exc


# ----------------------------------------------------------------------
# warm FTV indexes
# ----------------------------------------------------------------------

def dump_postings(trie) -> list:
    """The trie's live postings as a deterministic nested list.

    Rows are sorted by coded path, then graph id; locations ascending.
    For a ``SuffixTrie`` this dump already contains every expanded
    suffix — which is why restore must re-insert raw.
    """
    rows = []
    for seq, postings in trie.iter_postings():
        rows.append([
            list(seq),
            [
                [gid, p.count, location_vertices(p.locations)]
                for gid, p in sorted(postings.items())
            ],
        ])
    rows.sort(key=lambda row: row[0])
    return rows


_METHOD_OF_CLASS = {"GrapesIndex": "Grapes", "GGSXIndex": "GGSX"}


def index_method(index) -> str:
    """The catalog-facing method token of an index instance."""
    name = type(index).__name__
    try:
        return _METHOD_OF_CLASS[name]
    except KeyError:
        raise StoreError(f"unsupported FTV index class {name}") from None


def encode_index(index) -> bytes:
    payload = {
        "kind": "index",
        "codec": CODEC,
        "method": index_method(index),
        "max_path_length": index.max_path_length,
        "postings": dump_postings(index.trie),
    }
    # mutated-collection state, emitted only when it diverges from
    # what a fresh restore would derive — an unmutated index encodes
    # to the exact same bytes (and content address) as before
    if index.tombstones:
        payload["tombstones"] = sorted(index.tombstones)
    from ..indexing import LabelInterner  # deferred: indexing imports us

    fresh = LabelInterner(g.labels for g in index.graphs)
    if fresh.code_of != index.interner.code_of:
        # incremental adds *append* codes for novel labels; a restore
        # that re-derived codes from the sorted label set would decode
        # the coded postings against the wrong assignment, so the
        # dump pins the live code order explicitly
        payload["labels"] = sorted(
            index.interner.code_of,
            key=index.interner.code_of.get,
        )
    return _pack(payload)


def _location_mask(vertices) -> int:
    """A dumped location list as the vertex bitmask postings hold.

    A repeated id sets its bit once; a negative one raises
    ``ValueError`` (a malformed payload to the caller).
    """
    mask = 0
    for v in vertices:
        mask |= 1 << int(v)
    return mask


def decode_index(
    data: bytes, graphs, ftv_method: str, max_path_length: int
):
    """Reconstruct a warm FTV index from a verified blob.

    The payload's method and path length must match the requested
    configuration — a mismatch means the manifest lied about this blob
    (or the blob was swapped), so it surfaces as :class:`CodecError`
    and the caller quarantines + rebuilds.
    """
    from ..indexing import GGSXIndex, GrapesIndex

    obj = _unpack(data, "index")
    if obj.get("method") != ftv_method:
        raise CodecError(
            f"index blob is {obj.get('method')!r}, requested "
            f"{ftv_method!r}"
        )
    if obj.get("max_path_length") != max_path_length:
        raise CodecError(
            f"index blob max_path_length {obj.get('max_path_length')!r}"
            f" != requested {max_path_length}"
        )
    try:
        postings = [
            (
                tuple(int(c) for c in seq),
                [
                    (int(gid), int(count), _location_mask(locations))
                    for gid, count, locations in rows
                ],
            )
            for seq, rows in obj["postings"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"index payload malformed: {exc}") from exc
    cls = {"Grapes": GrapesIndex, "GGSX": GGSXIndex}.get(ftv_method)
    if cls is None:
        raise CodecError(f"unknown FTV method {ftv_method!r}")
    index = cls(
        graphs, max_path_length=max_path_length, restore=postings
    )
    labels = obj.get("labels")
    if labels is not None:
        # the dump was coded against an incrementally extended
        # interner; install its exact code order (restore itself never
        # consults the interner, so a post-construction swap is safe)
        from ..indexing import LabelInterner

        try:
            interner = LabelInterner([])
            interner.code_of = {
                lab: code for code, lab in enumerate(labels)
            }
        except TypeError as exc:
            raise CodecError(
                f"index payload labels malformed: {exc}"
            ) from exc
        index.interner = interner
        index._invalidate_censuses()
    tombstones = obj.get("tombstones")
    if tombstones:
        try:
            index.tombstones = {int(gid) for gid in tombstones}
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"index payload tombstones malformed: {exc}"
            ) from exc
    return index
