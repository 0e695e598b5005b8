"""StoreReader: verified, quarantining boot-from-store access.

Everything a catalog reads from disk flows through here, and every
failure class the corruption taxonomy names (docs/STORE.md) has one
detection point and one recovery:

===================  ==========================  =====================
defect               detected as                 recovery
===================  ==========================  =====================
torn blob write      length/sha mismatch         quarantine + rebuild
truncated blob       length mismatch             quarantine + rebuild
single-bit flip      sha mismatch                quarantine + rebuild
deleted blob         :class:`BlobMissing`        rebuild
undecodable blob,    :class:`CodecError` over    quarantine + rebuild
or one of another    checksummed bytes
format generation
malformed label      ``labels`` not a list of    miss; no index blob
table in a record    distinct labels covering    read; fresh warm
                     the restored graphs
manifest torn        :class:`ManifestError`      quarantine; store
                                                 reads as absent
manifest version     :class:`StoreVersionSkew`   quarantine; store
skew                                             reads as absent
stale manifest       self-checksum mismatch or   quarantine / rebuild
                     :class:`BlobMissing`
duplicate manifest   ``.tmp-*`` leftover —       ignored by design
(torn rewrite)       never opened
===================  ==========================  =====================

Detections increment ``corrupt_detected`` (the counter the acceptance
criteria pin), append a structured entry to :attr:`events` (mirrored
into the service tracer as store spans), and log loudly.  The reader
never raises past its caller with corrupt bytes in hand — a corrupt
store costs rebuild time, never answers.
"""

from __future__ import annotations

import logging
import os
from itertools import chain
from typing import Optional

from ..indexing import LabelInterner
from .blobs import (
    BlobCorrupt,
    BlobMissing,
    BlobRef,
    BlobStore,
    StoreError,
)
from .codec import CodecError, decode_graphs, decode_index
from .manifest import (
    MANIFEST_NAME,
    Manifest,
    ManifestError,
    StoreMissing,
    StoreVersionSkew,
    load_manifest,
    manifest_path,
)

__all__ = ["StoreReader"]

_log = logging.getLogger("repro.store")

_UNSET = object()


class StoreReader:
    """Verify-then-trust view of one store root.

    The manifest is loaded lazily and at most once per reader; a
    manifest-level defect (torn, version skew, failed self-checksum)
    quarantines the file and pins the reader to "store absent" — the
    degraded-but-correct mode where every restore misses and callers
    warm fresh.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.blobs = BlobStore(self.root)
        self._manifest: object = _UNSET
        #: corruption detections across every class (the pinned counter)
        self.corrupt_detected = 0
        #: files moved aside — blobs or the manifest itself (missing
        #: blobs can't be quarantined)
        self.quarantined = 0
        #: blobs that passed checksum verification
        self.blobs_verified = 0
        #: verified payload bytes handed to codecs
        self.bytes_read = 0
        #: warm artifacts restored from disk (graphs or index blobs)
        self.restores = 0
        #: restore attempts that fell back to an in-process rebuild
        self.rebuilds = 0
        #: dataset lookups the store could not serve (absent/mismatch)
        self.misses = 0
        #: structured loud-event log, append-only, in detection order
        self.events: list[dict] = []

    @classmethod
    def open(cls, store) -> "StoreReader":
        """Coerce a path or an existing reader into a reader."""
        if isinstance(store, cls):
            return store
        return cls(os.fspath(store))

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def _event(self, event: str, **fields) -> dict:
        entry = {"event": event, **fields}
        self.events.append(entry)
        _log.warning("store %s: %s", event, fields)
        return entry

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    @property
    def manifest(self) -> Optional[Manifest]:
        if self._manifest is _UNSET:
            self._manifest = self._load_manifest()
        return self._manifest  # type: ignore[return-value]

    def _load_manifest(self) -> Optional[Manifest]:
        try:
            return load_manifest(self.root)
        except StoreMissing:
            return None
        except StoreVersionSkew as exc:
            self.corrupt_detected += 1
            moved = self.blobs.quarantine_file(
                manifest_path(self.root), MANIFEST_NAME
            )
            if moved:
                self.quarantined += 1
            self._event(
                "manifest_version_skew",
                found=exc.found,
                expected=exc.expected,
                quarantined=moved,
            )
            return None
        except ManifestError as exc:
            self.corrupt_detected += 1
            moved = self.blobs.quarantine_file(
                manifest_path(self.root), MANIFEST_NAME
            )
            if moved:
                self.quarantined += 1
            self._event(
                "manifest_corrupt", error=str(exc), quarantined=moved
            )
            return None

    def available(self) -> list[str]:
        """Dataset names this store can try to restore."""
        manifest = self.manifest
        return sorted(manifest.datasets) if manifest else []

    def dataset_record(self, name: str) -> Optional[dict]:
        manifest = self.manifest
        if manifest is None:
            return None
        rec = manifest.datasets.get(name)
        if rec is None:
            self.misses += 1
        return rec

    # ------------------------------------------------------------------
    # verified blob loads
    # ------------------------------------------------------------------

    def _load_blob(self, ref_doc: dict, *, what: str, dataset: str) -> bytes:
        ref = BlobRef.from_dict(ref_doc)
        try:
            data = self.blobs.get(ref)
        except BlobMissing as exc:
            self.corrupt_detected += 1
            self._event(
                "blob_missing", dataset=dataset, what=what,
                address=ref.address,
            )
            raise exc
        except BlobCorrupt as exc:
            self.corrupt_detected += 1
            moved = self.blobs.quarantine(ref.address)
            if moved is not None:
                self.quarantined += 1
            self._event(
                "blob_corrupt", dataset=dataset, what=what,
                address=ref.address, reason=exc.reason,
                quarantined=moved,
            )
            raise exc
        self.blobs_verified += 1
        self.bytes_read += len(data)
        return data

    def _decode(self, fn, data: bytes, ref_doc: dict, *, what, dataset):
        """Run a codec over verified bytes, quarantining on failure.

        A checksummed blob that fails to decode means the manifest pins
        bytes the codec never wrote — treated exactly like corruption.
        """
        try:
            return fn(data)
        except CodecError as exc:
            self.corrupt_detected += 1
            address = str(ref_doc.get("address"))
            moved = self.blobs.quarantine(address)
            if moved is not None:
                self.quarantined += 1
            self._event(
                "blob_undecodable", dataset=dataset, what=what,
                address=address, error=str(exc), quarantined=moved,
            )
            raise exc

    def load_graphs(self, name: str) -> list:
        """The dataset's frozen graphs, verified + decoded.

        Raises :class:`StoreError` (after counting, quarantining, and
        logging) when the blob is missing/corrupt — callers fall back
        to the named builder.
        """
        rec = self.dataset_record(name)
        if rec is None:
            raise StoreMissing(f"dataset {name!r} not in store")
        ref = rec["graphs"]
        data = self._load_blob(ref, what="graphs", dataset=name)
        graphs = self._decode(
            decode_graphs, data, ref, what="graphs", dataset=name
        )
        if len(graphs) != ref.get("count", len(graphs)):
            raise StoreError(
                f"graphs blob for {name!r} holds {len(graphs)} graphs; "
                f"manifest says {ref.get('count')}"
            )
        return graphs

    def load_interner(self, name: str, graphs) -> Optional[LabelInterner]:
        """The label code space of collection ``name`` — the one its
        index blobs' rows are written in — from the record's
        ``labels``, the labels in code order.

        ``None`` for a record written before the table was (its index
        blobs are of an older format generation and fail their tag
        check one by one).  A table that is anything but a list of
        pairwise distinct labels covering every label of ``graphs`` is
        refused whole — a miss, logged as ``labels_mismatch``, raised
        as :class:`StoreError` — because rows decoded through a
        half-right table would filter wrong without failing.
        """
        rec = self.dataset_record(name)
        labels = None if rec is None else rec.get("labels")
        if labels is None:
            return None
        try:
            sound = (
                isinstance(labels, list)
                and len(set(labels)) == len(labels)
                and set(labels).issuperset(
                    chain.from_iterable(g.labels for g in graphs)
                )
            )
        except TypeError:  # an unhashable entry
            sound = False
        if not sound:
            self.misses += 1
            self._event("labels_mismatch", dataset=name, labels=labels)
            raise StoreError(
                f"label table of {name!r} is not a list of distinct "
                "labels covering the restored graphs"
            )
        return LabelInterner.from_code_order(labels)

    def load_index(
        self,
        name: str,
        graphs,
        *,
        shard: int,
        ftv_method: str,
        max_path_length: int,
        interner: Optional[LabelInterner] = None,
    ):
        """``shard``'s warm FTV index restored from its blob, sharing
        ``interner`` — :meth:`load_interner`'s, the code space the
        blob's rows are in."""
        rec = self.dataset_record(name)
        if rec is None:
            raise StoreMissing(f"dataset {name!r} not in store")
        ref = rec.get("indexes", {}).get(str(shard))
        if ref is None:
            raise StoreMissing(
                f"no index blob {shard} for dataset {name!r}"
            )
        what = f"index:{shard}"
        data = self._load_blob(ref, what=what, dataset=name)
        return self._decode(
            lambda d: decode_index(
                d, graphs, ftv_method, max_path_length, interner
            ),
            data, ref, what=what, dataset=name,
        )

    # ------------------------------------------------------------------
    # offline verification (repro warm --verify)
    # ------------------------------------------------------------------

    def verify_all(self) -> dict:
        """Checksum every referenced blob without restoring anything."""
        manifest = self.manifest
        report = {
            "manifest": manifest is not None,
            "epoch": manifest.epoch if manifest else None,
            "datasets": {},
            "blobs_ok": 0,
            "blobs_bad": 0,
        }
        if manifest is None:
            return report
        for name, rec in sorted(manifest.datasets.items()):
            refs = {"graphs": rec["graphs"]}
            refs.update({
                f"index:{k}": v
                for k, v in rec.get("indexes", {}).items()
            })
            status = {}
            for what, ref_doc in refs.items():
                try:
                    self.blobs.get(BlobRef.from_dict(ref_doc))
                except StoreError as exc:
                    status[what] = f"BAD: {exc}"
                    report["blobs_bad"] += 1
                else:
                    status[what] = "ok"
                    report["blobs_ok"] += 1
            report["datasets"][name] = status
        return report

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def as_metrics(self) -> dict:
        return {
            "corrupt_detected": self.corrupt_detected,
            "quarantined": self.quarantined,
            "blobs_verified": self.blobs_verified,
            "bytes_read": self.bytes_read,
            "restores": self.restores,
            "rebuilds": self.rebuilds,
            "misses": self.misses,
            "events": len(self.events),
        }

    def register_metrics(self, registry, prefix: str = "store") -> None:
        """Publish the reader's counters as registry gauges.

        ``replace=True`` throughout: a service can attach a fresh
        reader (new store dir) to a long-lived registry.
        """
        for key in (
            "corrupt_detected", "quarantined", "blobs_verified",
            "bytes_read", "restores", "rebuilds", "misses",
        ):
            registry.gauge(
                f"{prefix}.{key}",
                (lambda k=key: getattr(self, k)),
                replace=True,
            )
        registry.gauge(
            f"{prefix}.events", lambda: len(self.events), replace=True
        )
