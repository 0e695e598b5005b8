"""The write-ahead mutation journal: frames, recovery, fault classes.

The journal's contract is byte-level: every record is one
self-delimiting checksummed frame, appends are flush+fsync before the
caller may acknowledge, and :meth:`MutationJournal.recover` salvages
the longest valid prefix of a damaged file — truncating the rest into
``quarantine/`` as evidence, never deleting it.  Every corruption
class :class:`~repro.service.faults.StoreFaultInjector` can inject
must be detected (or proven harmless, for the truncate-to-empty case
where the bytes are simply gone *loudly*).
"""

from __future__ import annotations

import os

import pytest

from repro.service.faults import StoreFaultInjector
from repro.store.journal import (
    JOURNAL_NAME,
    JournalCorrupt,
    JournalCrash,
    JournalRecord,
    MutationJournal,
    encode_record,
)


def rec(seq: int, op: str = "add_graph", **kw) -> JournalRecord:
    kw.setdefault("graph_json", '{"name":"g"}' if op == "add_graph" else None)
    return JournalRecord(
        seq=seq, epoch=0, op=op, dataset="ppi", graph_id=seq, **kw
    )


@pytest.fixture
def journal(tmp_path):
    return MutationJournal(str(tmp_path))


def filled(journal: MutationJournal, n: int = 4) -> MutationJournal:
    for i in range(n):
        journal.append(rec(i))
    return journal


# ----------------------------------------------------------------------
# frames + append/checkpoint basics
# ----------------------------------------------------------------------

class TestFrames:
    def test_round_trip(self, journal):
        records = [
            rec(0),
            rec(1, op="remove_graph", graph_json=None),
            rec(2, shard=1),
        ]
        for r in records:
            journal.append(r)
        assert journal.records() == records
        assert journal.appended == 3

    def test_frame_is_self_delimiting_text_line(self):
        frame = encode_record(rec(7))
        assert frame.startswith(b"RJL1 ")
        assert frame.endswith(b"\n")
        # header declares the payload length in hex
        declared = int(frame.split(b" ")[1], 16)
        assert len(frame) == len(b"RJL1 ") + 8 + 1 + 16 + 1 + declared + 1

    def test_record_validates_op_and_seq(self):
        with pytest.raises(ValueError, match="unknown mutation op"):
            JournalRecord(seq=0, epoch=0, op="rename", dataset="d",
                          graph_id=0)
        with pytest.raises(ValueError, match="seq"):
            JournalRecord(seq=-1, epoch=0, op="add_graph", dataset="d",
                          graph_id=0)

    def test_empty_and_missing_journal(self, journal):
        assert journal.records() == []
        assert journal.tail_seq() == -1

    def test_tail_seq_tracks_appends(self, journal):
        filled(journal, 3)
        assert journal.tail_seq() == 2
        assert len(journal.records()) == 3

    def test_checkpoint_truncates_and_counts(self, journal):
        filled(journal, 3)
        released = journal.checkpoint()
        assert released > 0
        assert journal.records() == []
        assert journal.checkpoints == 1
        assert os.path.getsize(journal.path) == 0


# ----------------------------------------------------------------------
# recovery: salvage the valid prefix, quarantine the rest
# ----------------------------------------------------------------------

class TestRecovery:
    def test_clean_journal_recovers_everything(self, journal):
        filled(journal, 4)
        report = journal.recover()
        assert len(report.records) == 4
        assert report.detected == []
        assert report.truncated_bytes == 0
        assert report.quarantined is None

    def test_torn_tail_truncates_and_quarantines(self, journal):
        filled(journal, 4)
        size = os.path.getsize(journal.path)
        with open(journal.path, "rb+") as fh:
            fh.truncate(size - 9)
        report = journal.recover()
        assert len(report.records) == 3
        assert any("corrupt_frame" in d for d in report.detected)
        assert report.truncated_bytes > 0
        assert report.quarantined and os.path.exists(report.quarantined)
        # the file itself is repaired: a strict read now succeeds
        assert len(journal.records()) == 3

    def test_identical_duplicate_is_dropped_not_fatal(self, journal):
        filled(journal, 3)
        with open(journal.path, "ab") as fh:
            fh.write(encode_record(rec(2)))
        report = journal.recover()
        assert len(report.records) == 3
        assert report.duplicates_dropped == 1
        assert "duplicate_record" in report.detected
        assert report.truncated_bytes == 0

    def test_conflicting_duplicate_ends_the_prefix(self, journal):
        filled(journal, 3)
        with open(journal.path, "ab") as fh:
            fh.write(encode_record(rec(2, op="remove_graph",
                                       graph_json=None)))
        report = journal.recover()
        assert len(report.records) == 3
        assert "duplicate_seq_conflict" in report.detected
        assert report.quarantined is not None

    def test_seq_regression_ends_the_prefix(self, journal):
        filled(journal, 3)
        with open(journal.path, "ab") as fh:
            fh.write(encode_record(rec(1)))
        report = journal.recover()
        assert len(report.records) == 3
        assert "reordered_records" in report.detected
        assert report.quarantined is not None

    def test_recovery_is_idempotent(self, journal):
        filled(journal, 4)
        with open(journal.path, "ab") as fh:
            fh.write(b"RJL1 garbage")
        first = journal.recover()
        assert first.truncated_bytes > 0
        second = journal.recover()
        assert second.truncated_bytes == 0
        assert second.detected == []
        assert len(second.records) == len(first.records)

    def test_strict_read_refuses_what_recover_repairs(self, journal):
        filled(journal, 2)
        with open(journal.path, "ab") as fh:
            fh.write(encode_record(rec(0)))
        with pytest.raises(JournalCorrupt):
            journal.records()


# ----------------------------------------------------------------------
# the crash-injection hook
# ----------------------------------------------------------------------

class TestCrashHook:
    def test_fail_after_leaves_a_real_torn_tail(self, journal):
        journal.append(rec(0))
        with pytest.raises(JournalCrash):
            journal.append(rec(1), fail_after=10)
        # the torn bytes really reached disk...
        assert os.path.getsize(journal.path) > len(encode_record(rec(0)))
        # ...and recovery cuts them back off
        report = journal.recover()
        assert [r.seq for r in report.records] == [0]
        assert report.quarantined is not None

    def test_fail_after_full_frame_still_dies_pre_ack(self, journal):
        frame = encode_record(rec(0))
        with pytest.raises(JournalCrash):
            journal.append(rec(0), fail_after=len(frame))
        # the whole record landed: replay can restore what the crashed
        # process never got to acknowledge
        assert [r.seq for r in journal.recover().records] == [0]


# ----------------------------------------------------------------------
# injected corruption classes (the recovery matrix rows)
# ----------------------------------------------------------------------

class TestInjectedCorruptions:
    @pytest.fixture
    def injector(self, tmp_path, journal):
        filled(journal, 4)
        return StoreFaultInjector(str(tmp_path), seed=5)

    @pytest.mark.parametrize("kind", StoreFaultInjector.JOURNAL_CORRUPTIONS)
    def test_every_class_is_detected_or_harmless(
        self, kind, journal, injector
    ):
        injector.inject(kind)
        report = journal.recover()
        if kind == "journal_truncate":
            # the bytes are gone, loudly: an empty-but-valid journal
            assert report.records == []
            assert report.detected == []
        elif kind == "journal_duplicate_record":
            # a retried append: applied once, never truncated
            assert len(report.records) == 4
            assert report.duplicates_dropped == 1
            assert "duplicate_record" in report.detected
        else:
            assert report.detected, kind
            assert report.quarantined is not None
            assert len(report.records) < 4
        if kind == "journal_duplicate_record":
            # the redundant frame stays on disk (it is valid bytes);
            # a second recovery pass sees exactly the same picture
            again = journal.recover()
            assert [r.seq for r in again.records] == [
                r.seq for r in report.records
            ]
        else:
            # whatever was cut, the repaired file now reads strictly
            journal.records()

    def test_quarantine_preserves_the_evidence(self, journal, injector):
        before = journal._raw()
        injector.journal_torn_tail()
        damaged = journal._raw()
        report = journal.recover()
        with open(report.quarantined, "rb") as fh:
            tail = fh.read()
        # repaired prefix + quarantined tail == the damaged file
        assert journal._raw() + tail == damaged
        assert len(damaged) < len(before)

    def test_reorder_needs_two_records(self, tmp_path):
        journal = MutationJournal(str(tmp_path / "solo"))
        journal.append(rec(0))
        injector = StoreFaultInjector(str(tmp_path / "solo"))
        with pytest.raises(ValueError, match="fewer than two"):
            injector.journal_reorder_records()

    def test_injector_refuses_missing_journal(self, tmp_path):
        injector = StoreFaultInjector(str(tmp_path / "empty"))
        with pytest.raises(ValueError, match="no journal"):
            injector.journal_torn_tail()

    def test_quarantine_lives_beside_the_journal(self, journal, injector):
        injector.journal_bit_flip(bit=100)
        report = journal.recover()
        assert report.quarantined is not None
        assert os.path.dirname(
            report.quarantined
        ).endswith("quarantine")
