"""The mutation applier: journaled add/remove of stored graphs.

Mutations are fenced against queries: a submitted mutation stays
``pending`` until the service reaches a quiesce point (no ticket
queued, staged or racing), is resolved and checked by the catalog
(:meth:`~repro.service.sharding.ShardedCatalog.resolve_add` /
``resolve_remove`` — the one copy of every check an add or remove
makes), appended to the write-ahead journal (append + fsync) and only
then applied and acknowledged.  A crash at any byte therefore either
lost an unacknowledged mutation (the client retries) or left a
journaled record :meth:`MutationApplier.replay` restores; a request
the catalog would refuse never reaches the journal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..graphs import LabeledGraph
from ..obs import Counter
from .fanout import DEGRADED_RETRY_AFTER
from .rebalance import shard_loads

__all__ = ["MutationApplier", "MutationTicket"]

#: safety limit, not a deployment setting: initialises
#: :attr:`MutationApplier.max_pending`
MAX_PENDING_MUTATIONS = 256


@dataclass
class MutationTicket:
    """One submitted collection mutation and its lifecycle.

    Rejections (backlog full, dark shard) carry a ``retry_after`` hint
    like degraded query tickets.
    """

    id: int
    op: str  # "add_graph" | "remove_graph"
    dataset: str
    graph: Optional[LabeledGraph] = None
    graph_id: Optional[int] = None
    #: requested placement of an add (None = coldest shard)
    shard: Optional[int] = None
    submit_time: int = 0
    apply_time: Optional[int] = None
    state: str = "pending"  # pending | applied | rejected
    reason: Optional[str] = None
    retry_after: Optional[int] = None
    #: journal sequence the mutation acked through (None = unjournaled)
    seq: Optional[int] = None

    @property
    def applied(self) -> bool:
        return self.state == "applied"


class MutationApplier:
    """Pending mutations, the journal they ack through, and replay.

    ``journal`` is a path or a
    :class:`~repro.store.journal.MutationJournal` (None = mutations
    apply unjournaled and a crash loses everything since the last
    store checkpoint).  The virtual clock and the per-shard loads an
    unpinned add is placed by come from the replica set's dispatcher.
    """

    def __init__(self, catalog, replicas, journal=None):
        self.catalog = catalog
        self.replicas = replicas
        self.dispatcher = replicas.dispatcher
        self.journal = None
        if journal is not None:
            from ..store.journal import MutationJournal

            self.journal = (
                journal
                if isinstance(journal, MutationJournal)
                else MutationJournal(journal)
            )
        #: backlog cap; beyond it submissions reject with a retry_after
        self.max_pending = MAX_PENDING_MUTATIONS
        #: submitted mutations awaiting the next quiesce point
        self.pending: deque[MutationTicket] = deque()
        self._next_id = 1
        #: crash-injection hook (drills): the next journal append tears
        #: after this many bytes and raises JournalCrash pre-ack
        self.journal_fail_after: Optional[int] = None
        #: applied-seq high-water mark — replay skips seq <= this.  A
        #: store checkpoint persists it in the manifest layout, so a
        #: stale journal that survived its checkpoint replays nothing.
        self.applied_seq = self._checkpoint_seq()
        self._next_seq = max(
            self.journal.tail_seq() + 1 if self.journal else 0,
            self.applied_seq + 1,
        )
        #: the counters :meth:`report` reads
        self.applied = Counter()
        self.replayed = Counter()
        self.rejected = Counter()

    def _checkpoint_seq(self) -> int:
        """Journal seq the attached store checkpoint covers (-1 = none)."""
        reader = self.catalog.store
        if reader is None or reader.manifest is None:
            return -1
        try:
            return int(reader.manifest.layout.get("journal_seq", -1))
        except (TypeError, ValueError):
            return -1

    def lag(self) -> int:
        """Durable journal records not yet applied to the catalog.

        Zero on a healthy running service (append and apply happen in
        the same quiesce step); positive exactly between a cold boot
        and :meth:`replay`, which is the operator signal the watch
        surfaces carry.
        """
        if self.journal is None:
            return 0
        return max(0, self.journal.tail_seq() - self.applied_seq)

    def submit(
        self,
        dataset: str,
        op: str,
        graph: Optional[LabeledGraph] = None,
        graph_id: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> MutationTicket:
        """Queue one ``add_graph``/``remove_graph``; returns at once.

        A full backlog rejects with a ``retry_after`` hint instead of
        growing without bound.
        """
        if op not in ("add_graph", "remove_graph"):
            raise ValueError(
                f"unknown mutation op {op!r}; "
                "known: add_graph, remove_graph"
            )
        if op == "add_graph" and graph is None:
            raise ValueError("add_graph requires a graph")
        if op == "remove_graph" and graph_id is None:
            raise ValueError("remove_graph requires a graph_id")
        mutation = self._ticket(op, dataset, graph, graph_id, shard)
        if len(self.pending) >= self.max_pending:
            self._reject(
                mutation,
                f"mutation backlog full ({self.max_pending} pending)",
                retry=True,
            )
        else:
            self.pending.append(mutation)
        return mutation

    def _ticket(self, op, dataset, graph, graph_id, shard) -> MutationTicket:
        mutation = MutationTicket(
            id=self._next_id, op=op, dataset=dataset, graph=graph,
            graph_id=graph_id, shard=shard,
            submit_time=self.dispatcher.clock,
        )
        self._next_id += 1
        return mutation

    def _reject(
        self, mutation: MutationTicket, reason: str, retry: bool
    ) -> None:
        mutation.state = "rejected"
        mutation.reason = reason
        if retry:
            # the condition is environmental (backlog, dark shard) and
            # a later re-submission may succeed
            mutation.retry_after = (
                self.dispatcher.clock + DEGRADED_RETRY_AFTER
            )
        self.rejected.inc()

    def apply_pending(self) -> None:
        """Apply every pending mutation (caller guarantees quiesce)."""
        while self.pending:
            self._apply(self.pending.popleft())

    def _resolve(self, mutation: MutationTicket) -> tuple[int, int]:
        """``(graph_id, shard)`` of one mutation, pre-journal.

        The placement is decided *before* the journal append so the
        record pins it — replay reproduces the exact layout whatever
        the load state at replay time.  Newcomers land on the coldest
        serving shard unless the submitter pinned one; revives keep
        their slot's shard.
        """
        catalog = self.catalog
        if mutation.op == "remove_graph":
            gid = mutation.graph_id
            return gid, catalog.resolve_remove(mutation.dataset, gid)
        return catalog.resolve_add(
            mutation.dataset, mutation.graph_id, mutation.shard,
            shard_loads(self.replicas, self.dispatcher.pool_work),
        )

    def _apply(self, mutation: MutationTicket, replay: bool = False) -> None:
        """Resolve, journal, then apply one mutation; ack or reject it.

        Write-ahead discipline: the record is appended and fsynced
        *before* the catalog is touched, so the acknowledged state is
        always a prefix of the durable state.  A crash between append
        and apply leaves an unacknowledged-but-journaled record —
        replay applies it, which is exactly why replay must be
        idempotent.
        """
        try:
            gid, shard = self._resolve(mutation)
        except KeyError as exc:
            self._reject(mutation, str(exc), retry=True)
            return
        except ValueError as exc:
            self._reject(mutation, str(exc), retry=False)
            return
        if self.journal is not None and not replay:
            from ..graphs.io import graph_to_json
            from ..store.journal import JournalRecord

            record = JournalRecord(
                seq=self._next_seq,
                epoch=self.journal.checkpoints,
                op=mutation.op,
                dataset=mutation.dataset,
                graph_id=gid,
                shard=shard,
                graph_json=(
                    graph_to_json(mutation.graph)
                    if mutation.op == "add_graph"
                    else None
                ),
            )
            fail_after, self.journal_fail_after = (
                self.journal_fail_after, None,
            )
            # a JournalCrash here propagates: the simulated process
            # died pre-ack, so neither catalog nor client saw anything
            self.journal.append(record, fail_after=fail_after)
            mutation.seq = record.seq
            self._next_seq += 1
        if mutation.op == "add_graph":
            self.catalog.add_graph(
                mutation.dataset, mutation.graph, shard=shard, graph_id=gid
            )
        else:
            self.catalog.remove_graph(mutation.dataset, gid)
        if mutation.seq is not None:
            self.applied_seq = max(self.applied_seq, mutation.seq)
        mutation.graph_id = gid
        mutation.shard = shard
        mutation.state = "applied"
        mutation.apply_time = self.dispatcher.clock
        (self.replayed if replay else self.applied).inc()

    def replay(self):
        """Recover the journal and re-apply its surviving suffix.

        The cold-boot step: after the catalog restored the last store
        checkpoint, every journaled record newer than the checkpoint's
        ``journal_seq`` high-water is re-applied in order.  Recovery
        first truncates any torn tail (quarantining the evidence);
        replay skips records at or below the applied high-water, so
        calling this twice — or crashing mid-replay and replaying
        again — is identical to calling it once.  Returns the
        :class:`~repro.store.journal.RecoveryReport`.
        """
        if self.journal is None:
            raise ValueError("service has no journal to replay")
        from ..graphs.io import graph_from_json

        report = self.journal.recover()
        for record in report.records:
            if record.seq <= self.applied_seq:
                continue
            mutation = self._ticket(
                record.op,
                record.dataset,
                (
                    graph_from_json(record.graph_json)
                    if record.graph_json is not None
                    else None
                ),
                record.graph_id,
                # -1: written before every collection was sharded — no
                # placement was pinned, so this catalog places it
                record.shard if record.shard >= 0 else None,
            )
            self._apply(mutation, replay=True)
            self.applied_seq = max(self.applied_seq, record.seq)
            self._next_seq = max(self._next_seq, record.seq + 1)
        return report

    def checkpoint(self, root) -> dict:
        """Persist the catalog and fold the journal into the manifest.

        The manifest records the applied journal high-water
        (``journal_seq``) *before* the journal is truncated, so a crash
        between the two leaves a stale journal whose every record the
        next boot provably skips.  Only sound at a quiesce point.
        """
        from ..store import StoreWriter

        writer = (
            root if isinstance(root, StoreWriter) else StoreWriter(root)
        )
        return writer.write_catalog(
            self.catalog, journal=self.journal, journal_seq=self.applied_seq
        )

    def report(self) -> dict:
        """The ``service.mutations`` view."""
        report = {
            "applied": self.applied.value,
            "replayed": self.replayed.value,
            "rejected": self.rejected.value,
            "pending": len(self.pending),
            "epoch": self.catalog.mutation_epoch,
            "journal_lag": self.lag(),
        }
        if self.journal is not None:
            report["journal"] = self.journal.as_metrics()
        return report
