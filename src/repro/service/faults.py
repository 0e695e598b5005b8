"""Deterministic fault injection for the replicated serving layer.

The paper's whole premise is robustness-through-redundancy: PSI races
query rewritings and alternative algorithms in parallel precisely so a
straggling or pathological execution cannot stall a query.  The
serving layer applies the same discipline to *infrastructure*: every
shard carries N replica worker pools, and this module makes replica
failure a first-class, testable event instead of an accident.

Three injection kinds, all driven off the service's **virtual clock**
(or, equivalently deterministic, its completion counter):

* ``kill`` — a replica dies permanently.  Every fan-out leg racing on
  it is lost mid-flight; the service re-admits each lost leg against a
  surviving replica of the same shard under the same ticket (bounded
  retries), and new work never lands on the corpse.
* ``wedge`` — a replica's pool freezes for K ticks (the classic
  straggler).  Races on it stall but are not lost; the replica is
  ``suspect`` while wedged, so new placements prefer live siblings,
  and it returns to ``live`` when the wedge expires.
* ``fail_task`` — one in-flight :class:`RaceTask` leg aborts (a
  simulated worker crash).  The leg restarts from scratch on the
  least-loaded live replica, which may be the same one.

The invariant that makes chaos testable (pinned by
``tests/test_faults.py`` and ``scenarios/replicated-chaos.yaml``):
because engines are deterministic generators and a restarted leg
re-runs its race from step zero with the ticket's full budget, **every
budget-completed query of a chaos run answers bit-for-bit what the
healthy run answers** (``answers_digest`` equality).  Only the
historical side — step bills, latencies, which replica did the work —
legitimately differs.  When a shard loses *all* replicas the service
refuses partial answers: affected tickets degrade to a loud
``REJECTED`` with a protocol-style ``retry_after`` hint instead of
returning an answer missing a partition.

Everything here is seed-deterministic: :func:`chaos_plan` expands a
seed into a fixed event list, and two runs of the same (workload,
plan) produce identical answers, reroutes, and digests.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ReplicaState",
    "FaultEvent",
    "FaultInjector",
    "StoreFaultInjector",
    "chaos_plan",
]

#: injection kinds understood by ``Service._apply_fault``
FAULT_KINDS = ("kill", "wedge", "fail_task")


class ReplicaState(Enum):
    """Health of one (shard, replica) worker pool.

    ``LIVE`` replicas take new work; ``SUSPECT`` (wedged) replicas
    keep their in-flight races but are avoided for new placements
    while any live sibling exists; ``DEAD`` (killed) and ``RETIRED``
    (scaled down at a quiesce point) replicas serve nothing ever
    again — the difference is that a kill loses in-flight legs (they
    reroute) while retirement only happens on an idle service.
    """

    LIVE = "live"
    SUSPECT = "suspect"
    DEAD = "dead"
    RETIRED = "retired"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection.

    ``at`` is a threshold in ``unit`` — ``"clock"`` compares against
    the service's virtual step clock, ``"completions"`` against its
    completed-query counter; both are deterministic, so either unit
    yields reproducible drills.  ``replica == -1`` on a kill means
    "the busiest serving replica of the shard at fire time" (most
    active fan-out legs, then highest step bill) — still a pure
    function of execution state, and what makes a seeded drill
    reliably *mid-flight*.  ``shard == -1`` on a ``fail_task`` means
    "any shard" (the first active leg in token order aborts).
    """

    at: int
    kind: str
    shard: int = -1
    replica: int = -1
    #: wedge duration in scheduler ticks
    ticks: int = 0
    unit: str = "clock"
    #: plan order — unique per plan, the apply-order tie-break
    seq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.unit not in ("clock", "completions"):
            raise ValueError(f"unknown fault unit {self.unit!r}")
        if self.at < 0:
            raise ValueError("fault threshold must be >= 0")
        if self.kind == "wedge" and self.ticks < 1:
            raise ValueError("wedge needs ticks >= 1")

    def as_dict(self) -> dict:
        """JSON-ready rendering for bench payloads."""
        return {
            "at": self.at,
            "unit": self.unit,
            "kind": self.kind,
            "shard": self.shard,
            "replica": self.replica,
            "ticks": self.ticks,
        }


class FaultInjector:
    """A fixed schedule of :class:`FaultEvent`\\ s, popped as they come due.

    The service polls :meth:`due` once per pump tick with its current
    clock and completion count; every event whose threshold has been
    crossed fires exactly once, in plan (``seq``) order.  The injector
    holds no randomness — all nondeterminism was spent when the plan
    was built — so a chaos run is as replayable as a healthy one.
    """

    def __init__(self, events: tuple[FaultEvent, ...] | list = ()) -> None:
        self._pending: list[FaultEvent] = sorted(
            events, key=lambda e: (e.at, e.seq)
        )
        #: events fired so far, in apply order
        self.applied: list[FaultEvent] = []

    @property
    def pending(self) -> tuple[FaultEvent, ...]:
        """Events not yet fired."""
        return tuple(self._pending)

    def due(self, clock: int, completions: int) -> list[FaultEvent]:
        """Pop every event whose threshold is crossed, in plan order."""
        fired: list[FaultEvent] = []
        keep: list[FaultEvent] = []
        for event in self._pending:
            value = clock if event.unit == "clock" else completions
            (fired if value >= event.at else keep).append(event)
        if not fired:
            return []
        self._pending = keep
        fired.sort(key=lambda e: e.seq)
        self.applied.extend(fired)
        return fired

    def summary(self) -> dict:
        """JSON-ready counters for stats and bench payloads."""
        return {
            "planned": len(self.applied) + len(self._pending),
            "applied": [e.as_dict() for e in self.applied],
            "pending": len(self._pending),
        }

    def register_metrics(self, registry, prefix: str = "faults") -> None:
        """Publish schedule progress gauges into a metrics registry.

        ``replace=True`` throughout: chaos drills install fresh
        injectors against a long-lived service.
        """
        registry.gauge(
            f"{prefix}.planned",
            lambda: len(self.applied) + len(self._pending),
            replace=True,
        )
        registry.gauge(
            f"{prefix}.applied", lambda: len(self.applied), replace=True
        )
        registry.gauge(
            f"{prefix}.pending", lambda: len(self._pending), replace=True
        )


class StoreFaultInjector:
    """Filesystem fault injection against a warmed-artifact store.

    PR 6 made *runtime* failure first-class; this extends the same
    discipline to the storage layer (:mod:`repro.store`): every way
    disk can lie about a persisted warm artifact is one deterministic
    method here, and the corruption matrix (``tests/test_store.py``,
    ``scenarios/store-corrupt-bitflip.yaml``) asserts each class is
    detected on load, quarantined, and recovered from with answers
    digest-equal to a healthy never-persisted run.

    Victim selection is deterministic: blobs are addressed by their
    sorted on-disk order (``index`` parameter), byte/bit offsets default
    to mid-file, and the only randomness is the seeded ``rng`` used
    when an offset is left to chance — so a drill replays exactly.
    """

    #: the corruption taxonomy (docs/STORE.md recovery matrix rows)
    CORRUPTIONS = (
        "torn_write",
        "truncate",
        "bit_flip",
        "delete_blob",
        "version_skew",
        "stale_manifest",
        "duplicate_manifest",
    )

    #: mutation-journal corruption classes (same matrix, journal rows).
    #: Separate tuple because their victim is ``JOURNAL.log``, not a
    #: blob — ``inject`` dispatches both.
    JOURNAL_CORRUPTIONS = (
        "journal_torn_tail",
        "journal_truncate",
        "journal_bit_flip",
        "journal_duplicate_record",
        "journal_reorder_records",
    )

    def __init__(self, root: str, seed: int = 0) -> None:
        self.root = str(root)
        self.rng = random.Random(seed)
        #: injections performed, in order (JSON-ready dicts)
        self.applied: list[dict] = []

    # -- plumbing ------------------------------------------------------

    def blob_paths(self) -> list[str]:
        """Published blob files, sorted by address (victim order)."""
        from ..store.blobs import BlobStore

        bs = BlobStore(self.root)
        return [bs.path_for(a) for a in bs.addresses()]

    def _victim(self, index: int) -> str:
        paths = self.blob_paths()
        if not paths:
            raise ValueError(f"store at {self.root!r} has no blobs")
        return paths[index % len(paths)]

    def _record(self, kind: str, **fields) -> dict:
        entry = {"kind": kind, **fields}
        self.applied.append(entry)
        return entry

    def _manifest_path(self) -> str:
        from ..store.manifest import manifest_path

        return manifest_path(self.root)

    # -- blob corruption ----------------------------------------------

    def torn_write(self, index: int = 0, at_byte: int | None = None) -> dict:
        """Cut a blob at byte ``k`` — the tail of a write that never
        finished (detected as a length/checksum mismatch on load)."""
        path = self._victim(index)
        size = os.path.getsize(path)
        k = at_byte if at_byte is not None else max(1, size // 2)
        with open(path, "rb+") as fh:
            fh.truncate(k)
        return self._record("torn_write", path=path, at_byte=k)

    def truncate(self, index: int = 0, keep: int = 0) -> dict:
        """Truncate a blob to ``keep`` bytes (0 = empty file)."""
        path = self._victim(index)
        with open(path, "rb+") as fh:
            fh.truncate(keep)
        return self._record("truncate", path=path, keep=keep)

    def bit_flip(
        self, index: int = 0, bit: int | None = None
    ) -> dict:
        """Flip a single bit mid-blob (silent media corruption —
        length unchanged, so only the checksum can catch it)."""
        path = self._victim(index)
        size = os.path.getsize(path)
        if bit is None:
            bit = self.rng.randrange(size * 8)
        byte, offset = divmod(bit, 8)
        with open(path, "rb+") as fh:
            fh.seek(byte)
            value = fh.read(1)[0]
            fh.seek(byte)
            fh.write(bytes([value ^ (1 << offset)]))
        return self._record("bit_flip", path=path, bit=bit)

    def delete_blob(self, index: int = 0) -> dict:
        """Remove a manifest-referenced blob outright."""
        path = self._victim(index)
        os.unlink(path)
        return self._record("delete_blob", path=path)

    # -- manifest corruption ------------------------------------------

    def version_skew(self, bump: int = 1) -> dict:
        """Rewrite the manifest as a *future* format generation.

        The checksum is recomputed over the skewed body, so the only
        defect is the version — isolating the version gate from the
        integrity gate.  A reader must refuse the whole store.
        """
        path = self._manifest_path()
        from ..store.blobs import sha256_hex

        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("checksum", None)
        doc["version"] = doc.get("version", 0) + bump
        canonical = json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        doc["checksum"] = sha256_hex(canonical)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        return self._record(
            "version_skew", path=path, version=doc["version"]
        )

    def stale_manifest(self) -> dict:
        """Edit the manifest body without refreshing its checksum —
        the signature of a stale or hand-patched root document."""
        path = self._manifest_path()
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["epoch"] = doc.get("epoch", 0) + 1  # body/checksum now skew
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        return self._record("stale_manifest", path=path)

    def duplicate_manifest(self) -> dict:
        """Leave a stray atomic-write temp file next to the manifest
        (a crashed rewrite).  Readers must ignore it — this injection
        asserts the *absence* of an effect."""
        path = self._manifest_path()
        from ..store.blobs import TMP_PREFIX

        dup = os.path.join(
            self.root, f"{TMP_PREFIX}MANIFEST.json.crashed"
        )
        with open(path, "rb") as src, open(dup, "wb") as dst:
            data = src.read()
            dst.write(data[: max(1, len(data) // 2)])
        return self._record("duplicate_manifest", path=dup)

    # -- journal corruption -------------------------------------------

    def _journal_path(self) -> str:
        from ..store.journal import JOURNAL_NAME

        path = os.path.join(self.root, JOURNAL_NAME)
        if not os.path.exists(path):
            raise ValueError(
                f"store at {self.root!r} has no journal"
            )
        return path

    def _journal_lines(self) -> tuple[str, list[bytes]]:
        path = self._journal_path()
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        if not lines:
            raise ValueError(f"journal at {path!r} is empty")
        return path, lines

    def journal_torn_tail(self, cut: int | None = None) -> dict:
        """Cut the journal's last record mid-frame — the append a
        crash interrupted (recovery truncates + quarantines it)."""
        path, lines = self._journal_lines()
        tail = lines[-1]
        k = cut if cut is not None else max(1, len(tail) // 2)
        with open(path, "rb+") as fh:
            fh.truncate(sum(len(ln) for ln in lines[:-1]) + k)
        return self._record("journal_torn_tail", path=path, cut=k)

    def journal_truncate(self, keep_records: int = 0) -> dict:
        """Truncate the journal to its first ``keep_records`` frames
        (0 = empty file — every unreplayed mutation lost *loudly*)."""
        path, lines = self._journal_lines()
        kept = lines[:keep_records]
        with open(path, "rb+") as fh:
            fh.truncate(sum(len(ln) for ln in kept))
        return self._record(
            "journal_truncate", path=path, keep_records=len(kept)
        )

    def journal_bit_flip(self, bit: int | None = None) -> dict:
        """Flip one bit inside a journal frame's payload (silent media
        corruption — the frame checksum must catch it)."""
        path = self._journal_path()
        size = os.path.getsize(path)
        if bit is None:
            bit = self.rng.randrange(size * 8)
        byte, offset = divmod(bit, 8)
        with open(path, "rb+") as fh:
            fh.seek(byte)
            value = fh.read(1)[0]
            fh.seek(byte)
            fh.write(bytes([value ^ (1 << offset)]))
        return self._record("journal_bit_flip", path=path, bit=bit)

    def journal_duplicate_record(self, index: int = -1) -> dict:
        """Re-append one frame verbatim (a retried write that landed
        twice); recovery must apply it once."""
        path, lines = self._journal_lines()
        victim = lines[index % len(lines)]
        with open(path, "ab") as fh:
            fh.write(victim)
        return self._record(
            "journal_duplicate_record", path=path,
            index=index % len(lines),
        )

    def journal_reorder_records(self) -> dict:
        """Swap the journal's last two frames (an out-of-order flush);
        the seq monotonicity check must refuse the regression."""
        path, lines = self._journal_lines()
        if len(lines) < 2:
            raise ValueError("journal holds fewer than two records")
        lines[-1], lines[-2] = lines[-2], lines[-1]
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
        return self._record("journal_reorder_records", path=path)

    # -- dispatch ------------------------------------------------------

    def inject(self, kind: str, **kwargs) -> dict:
        """Apply one corruption class by name (matrix driver hook)."""
        if kind not in self.CORRUPTIONS + self.JOURNAL_CORRUPTIONS:
            raise ValueError(
                f"unknown store fault {kind!r}; known: "
                f"{self.CORRUPTIONS + self.JOURNAL_CORRUPTIONS}"
            )
        return getattr(self, kind)(**kwargs)

    def summary(self) -> dict:
        return {
            "applied": list(self.applied),
            "classes": sorted({e["kind"] for e in self.applied}),
        }


def chaos_plan(
    seed: int,
    num_shards: int,
    replicas: int,
    queries: int = 0,
    horizon: int = 0,
    kills_per_shard: int = 1,
    wedges: int = 1,
    fail_tasks: int = 1,
    max_wedge_ticks: int = 6,
) -> FaultInjector:
    """Expand ``seed`` into the standard chaos drill.

    The drill the acceptance criteria name: kill one replica of each
    shard mid-run (the *busiest* replica at fire time, so the kill is
    reliably mid-flight), plus ``wedges`` straggler freezes and
    ``fail_tasks`` mid-flight task aborts.  Fire times are drawn
    uniformly from the middle of the run — as virtual-clock thresholds
    inside ``horizon`` steps when a horizon is known (e.g. from a
    prior healthy run), else as completion-count thresholds inside
    ``queries`` — so the same seed always produces the same plan.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if horizon <= 0 and queries <= 0:
        raise ValueError("chaos_plan needs a horizon or a query count")
    rng = random.Random(seed)
    events: list[FaultEvent] = []

    def when() -> tuple[int, str]:
        if horizon > 0:
            return max(1, int(rng.uniform(0.2, 0.6) * horizon)), "clock"
        return max(1, int(rng.uniform(0.2, 0.6) * queries)), "completions"

    seq = 0
    for shard in range(num_shards):
        for _ in range(kills_per_shard):
            at, unit = when()
            events.append(FaultEvent(
                at=at, kind="kill", shard=shard, replica=-1,
                unit=unit, seq=seq,
            ))
            seq += 1
    for _ in range(wedges):
        at, unit = when()
        events.append(FaultEvent(
            at=at, kind="wedge",
            shard=rng.randrange(num_shards),
            replica=rng.randrange(replicas),
            ticks=rng.randint(2, max(2, max_wedge_ticks)),
            unit=unit, seq=seq,
        ))
        seq += 1
    for _ in range(fail_tasks):
        at, unit = when()
        events.append(FaultEvent(
            at=at, kind="fail_task", unit=unit, seq=seq,
        ))
        seq += 1
    return FaultInjector(events)
