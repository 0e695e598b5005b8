"""Write-ahead mutation journal (store layer 3).

The PR 8 store makes *warm state* durable; this module makes *changes*
to that state durable.  Every accepted ``add_graph`` / ``remove_graph``
mutation is appended here **before** the service acknowledges it, so a
crash at any point loses nothing: cold boot restores the last store
checkpoint and replays the journal's surviving suffix.

Record format (one line per mutation, self-delimiting)::

    RJL1 <length:08x> <sha256[:16]> <payload-json>\\n

``length`` is the byte length of the JSON payload, the checksum is the
first 16 hex chars of the payload's SHA-256, and the trailing newline
closes the frame.  Self-delimiting framing is what makes a torn tail
recoverable *by construction*: the first record whose header, length,
checksum, or terminator does not verify marks the end of the valid
prefix — everything after it is moved into ``quarantine/`` (evidence
preserved, :class:`~repro.store.blobs.BlobStore` discipline) and the
file is truncated back to the last record that fsync provably
published.

Append protocol: open append-only, write the full frame, flush, fsync.
There is no rename step — an append either lands wholly (the common
case once fsync returns) or leaves a torn tail that
:meth:`MutationJournal.recover` truncates away.  The ``fail_after``
hook simulates a crash mid-append (some bytes reach the file, the
process "dies" before acknowledging), which is the
kill-between-append-and-ack drill of ``tests/test_journal.py``.

Replay discipline (what makes replay *idempotent*):

* records carry a monotone ``seq`` — appliers keep a high-water mark
  and skip any record at or below it, so replaying twice ≡ once;
* records carry the store ``epoch`` they were appended under — a
  checkpoint (:meth:`repro.store.StoreWriter.write_catalog`) folds the
  journal into the manifest and truncates it, and replay skips records
  stamped with a pre-checkpoint epoch should a stale journal survive;
* a record whose ``seq`` repeats the previous one verbatim is a
  duplicated append (retried ack): detected, counted, skipped;
* a record whose ``seq`` goes *backwards* is reordering corruption —
  the journal is append-only, so the violating suffix is quarantined.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .blobs import BlobStore, StoreError, sha256_hex

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_MAGIC",
    "JournalError",
    "JournalCorrupt",
    "JournalCrash",
    "JournalRecord",
    "RecoveryReport",
    "MutationJournal",
    "encode_record",
]

JOURNAL_NAME = "JOURNAL.log"

#: frame magic — bumping it is a format generation change
JOURNAL_MAGIC = "RJL1"

#: header layout: "RJL1 " + 8 hex length + " " + 16 hex checksum + " "
_HEADER_LEN = len(JOURNAL_MAGIC) + 1 + 8 + 1 + 16 + 1

#: digest prefix length pinned by the frame format
_SUM_LEN = 16

MUTATION_OPS = ("add_graph", "remove_graph")


class JournalError(StoreError):
    """Base of journal failures."""


class JournalCorrupt(JournalError):
    """A record frame failed verification (strict-read entry point)."""


class JournalCrash(JournalError):
    """Raised by the ``fail_after`` crash-injection hook: the append
    wrote a torn tail and the simulated process died before the ack."""


@dataclass(frozen=True)
class JournalRecord:
    """One durable mutation.

    ``graph_json`` is the full :func:`repro.graphs.io.graph_to_json`
    payload for adds (replay must reconstruct the graph without the
    workload generator) and ``None`` for removes.  ``shard`` pins the
    placement decision so replay reproduces it regardless of load
    state at replay time (``-1`` = none pinned — a record written
    before every collection was sharded; the replaying service
    places it).
    """

    seq: int
    epoch: int
    op: str
    dataset: str
    graph_id: int
    shard: int = -1
    graph_json: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise ValueError(
                f"unknown mutation op {self.op!r}; known: {MUTATION_OPS}"
            )
        if self.seq < 0:
            raise ValueError("journal seq must be >= 0")

    def payload(self) -> dict:
        doc = {
            "seq": self.seq,
            "epoch": self.epoch,
            "op": self.op,
            "dataset": self.dataset,
            "graph_id": self.graph_id,
            "shard": self.shard,
        }
        if self.graph_json is not None:
            doc["graph"] = self.graph_json
        return doc

    @classmethod
    def from_payload(cls, doc: dict) -> "JournalRecord":
        try:
            return cls(
                seq=int(doc["seq"]),
                epoch=int(doc["epoch"]),
                op=str(doc["op"]),
                dataset=str(doc["dataset"]),
                graph_id=int(doc["graph_id"]),
                shard=int(doc.get("shard", -1)),
                graph_json=doc.get("graph"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorrupt(
                f"malformed journal payload: {doc!r}"
            ) from exc


def encode_record(record: JournalRecord) -> bytes:
    """One self-delimiting frame for ``record``."""
    payload = json.dumps(
        record.payload(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    header = (
        f"{JOURNAL_MAGIC} {len(payload):08x} "
        f"{sha256_hex(payload)[:_SUM_LEN]} "
    ).encode("ascii")
    return header + payload + b"\n"


def _decode_frame(
    data: bytes, offset: int
) -> tuple[JournalRecord, int]:
    """Decode the frame at ``offset``; raises :class:`JournalCorrupt`
    on any framing/integrity defect (including a torn tail)."""
    head = data[offset : offset + _HEADER_LEN]
    if len(head) < _HEADER_LEN:
        raise JournalCorrupt("torn header at end of journal")
    text = head.decode("ascii", errors="replace")
    magic, length_hex, checksum = (
        text[: len(JOURNAL_MAGIC)],
        text[len(JOURNAL_MAGIC) + 1 : len(JOURNAL_MAGIC) + 9],
        text[len(JOURNAL_MAGIC) + 10 : len(JOURNAL_MAGIC) + 26],
    )
    if magic != JOURNAL_MAGIC or text[len(JOURNAL_MAGIC)] != " ":
        raise JournalCorrupt(f"bad frame magic {magic!r}")
    try:
        length = int(length_hex, 16)
    except ValueError as exc:
        raise JournalCorrupt(f"bad length field {length_hex!r}") from exc
    start = offset + _HEADER_LEN
    payload = data[start : start + length]
    if len(payload) < length:
        raise JournalCorrupt("torn payload at end of journal")
    if data[start + length : start + length + 1] != b"\n":
        raise JournalCorrupt("missing frame terminator")
    if sha256_hex(payload)[:_SUM_LEN] != checksum:
        raise JournalCorrupt("payload checksum mismatch")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalCorrupt("payload is not valid JSON") from exc
    return JournalRecord.from_payload(doc), start + length + 1


@dataclass
class RecoveryReport:
    """What one :meth:`MutationJournal.recover` pass found and fixed."""

    #: valid records in append order, duplicates already dropped
    records: list = field(default_factory=list)
    #: consecutive same-``seq`` re-appends skipped (retried acks)
    duplicates_dropped: int = 0
    #: bytes cut off the tail (torn/corrupt/reordered suffix)
    truncated_bytes: int = 0
    #: quarantine file holding the cut suffix, if any was cut
    quarantined: Optional[str] = None
    #: defect classes seen, in detection order (docs/STORE.md matrix)
    detected: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "duplicates_dropped": self.duplicates_dropped,
            "truncated_bytes": self.truncated_bytes,
            "quarantined": self.quarantined,
            "detected": list(self.detected),
        }


class MutationJournal:
    """The append-only mutation log of one store root.

    Lives beside the manifest (``<root>/JOURNAL.log``); an absent file
    is an empty journal.  All reads verify every frame; all writes are
    append → flush → fsync before the caller may acknowledge.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.path = os.path.join(self.root, JOURNAL_NAME)
        #: appends performed through this handle (not the on-disk count)
        self.appended = 0
        #: checkpoints (truncations) performed through this handle
        self.checkpoints = 0

    # -- writes --------------------------------------------------------

    def append(
        self, record: JournalRecord, *, fail_after: Optional[int] = None
    ) -> int:
        """Durably append ``record``; returns its ``seq``.

        ``fail_after`` simulates a crash mid-append: only that many
        bytes of the frame reach the file (flushed and fsynced, so the
        torn tail really is on disk) and :class:`JournalCrash` is
        raised *before* the caller can acknowledge the mutation.
        """
        os.makedirs(self.root, exist_ok=True)
        frame = encode_record(record)
        payload = frame if fail_after is None else frame[:fail_after]
        with open(self.path, "ab") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        if fail_after is not None:
            raise JournalCrash(
                f"simulated crash after {fail_after} bytes of seq "
                f"{record.seq}"
            )
        self.appended += 1
        return record.seq

    def checkpoint(self) -> int:
        """Truncate the journal (its records are now in the manifest).

        Called by :meth:`repro.store.StoreWriter.write_catalog` after a
        successful manifest publication: every journaled mutation is
        reflected in the checkpointed state, so the log starts over.
        Returns the number of bytes released.
        """
        try:
            released = os.path.getsize(self.path)
        except OSError:
            released = 0
        if released:
            with open(self.path, "rb+") as fh:
                fh.truncate(0)
                fh.flush()
                os.fsync(fh.fileno())
        self.checkpoints += 1
        return released

    # -- reads ---------------------------------------------------------

    def _raw(self) -> bytes:
        try:
            with open(self.path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def records(self) -> list[JournalRecord]:
        """Strict scan: every frame must verify, order must be valid.

        Raises :class:`JournalCorrupt` on the first defect — use
        :meth:`recover` to salvage the valid prefix instead.
        """
        data = self._raw()
        out: list[JournalRecord] = []
        offset = 0
        while offset < len(data):
            record, offset = _decode_frame(data, offset)
            if out and record.seq <= out[-1].seq:
                raise JournalCorrupt(
                    f"seq {record.seq} after {out[-1].seq} "
                    "(duplicate or reordered record)"
                )
            out.append(record)
        return out

    def pending_count(self) -> int:
        """Records currently salvageable from disk (journal lag)."""
        return len(self.recover(dry_run=True).records)

    def tail_seq(self) -> int:
        """Highest valid seq on disk, or ``-1`` for an empty journal."""
        records = self.recover(dry_run=True).records
        return records[-1].seq if records else -1

    def recover(self, *, dry_run: bool = False) -> RecoveryReport:
        """Salvage the valid record prefix, repairing the file.

        Walks frames until the first defect.  A duplicated record
        (same ``seq`` as its predecessor, a retried append) is skipped
        and the walk continues — the bytes are valid, only redundant.
        Anything else — torn tail, checksum mismatch, reordered seq —
        ends the valid prefix: the offending suffix is moved to
        ``quarantine/`` and the file truncated to the last valid frame
        (unless ``dry_run``).  Recovery is idempotent: a second pass
        over a repaired journal finds nothing to fix.
        """
        data = self._raw()
        report = RecoveryReport()
        offset = 0
        valid_end = 0
        while offset < len(data):
            try:
                record, nxt = _decode_frame(data, offset)
            except JournalCorrupt as exc:
                self._flag(report, f"corrupt_frame: {exc}")
                break
            if report.records and record.seq == report.records[-1].seq:
                # a retried append: same mutation landed twice —
                # state-preserving, so skip it and keep scanning
                if record.payload() != report.records[-1].payload():
                    self._flag(report, "duplicate_seq_conflict")
                    break
                report.duplicates_dropped += 1
                if "duplicate_record" not in report.detected:
                    report.detected.append("duplicate_record")
                offset = nxt
                valid_end = nxt
                continue
            if report.records and record.seq < report.records[-1].seq:
                self._flag(report, "reordered_records")
                break
            report.records.append(record)
            offset = nxt
            valid_end = nxt
        tail = len(data) - valid_end
        if tail > 0:
            report.truncated_bytes = tail
            if not dry_run:
                report.quarantined = self._quarantine_tail(
                    data[valid_end:]
                )
                with open(self.path, "rb+") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
        return report

    @staticmethod
    def _flag(report: RecoveryReport, kind: str) -> None:
        if kind not in report.detected:
            report.detected.append(kind)

    def _quarantine_tail(self, tail: bytes) -> str:
        """Preserve the cut suffix as evidence (never deleted)."""
        store = BlobStore(self.root)
        os.makedirs(store.quarantine_dir, exist_ok=True)
        n = 0
        while True:
            dst = os.path.join(
                store.quarantine_dir, f"{JOURNAL_NAME}.tail.{n}"
            )
            if not os.path.exists(dst):
                break
            n += 1
        with open(dst, "wb") as fh:
            fh.write(tail)
            fh.flush()
            os.fsync(fh.fileno())
        return dst

    def as_metrics(self) -> dict:
        return {
            "path": self.path,
            "appended": self.appended,
            "checkpoints": self.checkpoints,
        }
