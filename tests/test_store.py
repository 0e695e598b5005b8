"""The versioned artifact store: crash-safe persistence of warmed
catalog state, checksum-verified restore, and corruption recovery.

The contracts under test, in dependency order:

* **Blob layer** — content-addressed, checksummed, atomically written:
  a torn write leaves no blob behind, a flipped bit or truncation is
  detected on read, detected corruption is quarantined (moved aside),
  never silently served.
* **Manifest layer** — version checked before checksum (skew is
  diagnosed as skew, not staleness), torn manifest writes leave the
  store indistinguishable from no store.
* **Digest identity** — a service cold-booted from the store serves
  byte-for-bit the same results (``results_digest``,
  ``answers_digest``, and the same stats key set) as a fresh
  in-process warm, across one-shard, sharded+routed, and replicated
  layouts; a ``DatasetCatalog`` view writes the one-shard catalog it
  wraps, byte for byte as that catalog does, and a store in the deleted ``sharded: false`` layout is a
  clean miss that the next checkpoint replaces.
* **Corruption matrix** — every :class:`StoreFaultInjector` class is
  detected on load and degrades to a per-graph rebuild whose digests
  equal the healthy run's.
* **Elastic drill** — a shard that loses every replica under live
  chaos load is re-warmed from the store by the next
  ``Service.add_replica``, with zero lost tickets and answers equal to
  a healthy never-persisted run; a replica grown beside a live sibling
  reads nothing.
"""

import hashlib
import json
import os
import struct
import zlib

import pytest

from repro.datasets import ppi_like
from repro.harness import build_ftv_graphs
from repro.indexing import GGSXIndex, GrapesIndex
from repro.service import (
    AdmissionController,
    FaultEvent,
    FaultInjector,
    QueryOptions,
    Service,
    TenantPolicy,
    answers_digest,
    run_closed_loop,
)
from repro.service.catalog import DatasetCatalog
from repro.service.dispatcher import Dispatcher
from repro.service.faults import StoreFaultInjector
from repro.service.planner import SERVED_FTV_METHOD, SERVED_PATH_LENGTH
from repro.service.replicas import ReplicaSet
from repro.service.sharding import ShardedCatalog
from repro.store import (
    BlobCorrupt,
    BlobMissing,
    BlobRef,
    BlobStore,
    Manifest,
    ManifestError,
    StoreMissing,
    StoreReader,
    StoreVersionSkew,
    StoreWriter,
    atomic_write_bytes,
    load_manifest,
    sha256_hex,
    write_manifest,
)
from repro.service.loadgen import collection_digest
from repro.store.codec import (
    CODEC,
    INDEX_CODEC,
    INDEX_COLUMNS,
    CodecError,
    decode_index,
    encode_index,
    index_method,
)
from repro.workload import (
    default_tenant_mixes,
    generate_tenant_stream,
    generate_workload,
)

from ._index_codec_v3 import encode_index_v3
from ._store_layout_unsharded import write_unsharded_store
from .conftest import relabelled

BUDGET = 60_000
FTV_OPTS = QueryOptions(rewritings=("Orig", "DND"))


@pytest.fixture(scope="module")
def ppi_graphs():
    return build_ftv_graphs("ppi", "tiny")


def ftv_service(shards=1, replicas=1, routing=False, store=None, **kw):
    svc = Service(
        workers=4,
        shards=shards,
        replicas=replicas,
        routing=routing,
        admission=AdmissionController(
            default_policy=TenantPolicy(step_budget=BUDGET)
        ),
        store=store,
        **kw,
    )
    svc.load_dataset("ppi", scale="tiny")
    return svc


def ftv_streams(graphs, tenants=2, per_tenant=8, seed=9):
    mixes = default_tenant_mixes(
        tenants, per_tenant, sizes=(4, 6), repeat_fraction=0.3
    )
    return {
        m.tenant: generate_tenant_stream(graphs, m, seed=seed)
        for m in mixes
    }


def run_workload(svc, graphs, **kw):
    return run_closed_loop(
        svc, "ppi", ftv_streams(graphs), options=FTV_OPTS,
        concurrency=2, **kw,
    )


def warm_store(tmp_path, shards=1, replicas=1, name="ppi", scale="tiny"):
    """Warm a catalog of the given layout and persist it."""
    catalog = ShardedCatalog(num_shards=shards, replicas=replicas)
    catalog.load(name, scale=scale)
    root = str(tmp_path / "store")
    summary = StoreWriter(root).write_catalog(catalog)
    return root, catalog, summary


# ----------------------------------------------------------------------
# blob layer
# ----------------------------------------------------------------------

class TestBlobStore:
    def test_put_get_round_trip_and_addressing(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        data = b"some artifact bytes" * 100
        ref = bs.put(data)
        assert ref.address == sha256_hex(data)[: len(ref.address)]
        assert ref.sha256 == sha256_hex(data)
        assert ref.length == len(data)
        assert bs.get(ref) == data
        # content addressing: same bytes -> same blob, no duplicate
        assert bs.put(data).address == ref.address
        assert bs.addresses() == [ref.address]

    def test_atomic_write_leaves_no_tmp_behind(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"payload")
        with open(path, "rb") as f:
            assert f.read() == b"payload"
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []

    def test_torn_write_leaves_no_blob(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        torn = bs.put(b"x" * 1000, fail_after=100)  # simulated crash
        assert bs.addresses() == []  # never published
        with pytest.raises(BlobMissing):
            bs.get(torn)
        # the torn temp file never shadows a later clean write
        ref = bs.put(b"x" * 1000)
        assert bs.get(ref) == b"x" * 1000

    def test_bit_flip_detected_not_served(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        ref = bs.put(b"y" * 512)
        path = bs.path_for(ref.address)
        with open(path, "rb") as f:
            raw = bytearray(f.read())
        raw[37] ^= 0x01
        with open(path, "wb") as f:
            f.write(bytes(raw))
        with pytest.raises(BlobCorrupt):
            bs.get(ref)

    def test_truncation_detected_by_length_first(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        ref = bs.put(b"z" * 512)
        path = bs.path_for(ref.address)
        with open(path, "wb") as f:
            f.write(b"z" * 100)
        with pytest.raises(BlobCorrupt) as exc:
            bs.get(ref)
        assert "length" in str(exc.value)

    def test_missing_blob_raises_blob_missing(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        ref = bs.put(b"gone")
        os.unlink(bs.path_for(ref.address))
        with pytest.raises(BlobMissing):
            bs.get(ref)

    def test_quarantine_moves_aside(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        ref = bs.put(b"bad bytes")
        moved = bs.quarantine(ref.address)
        assert moved is not None and os.path.exists(moved)
        assert not os.path.exists(bs.path_for(ref.address))
        assert bs.addresses() == []

    def test_blob_ref_round_trips(self):
        ref = BlobRef(address="ab" * 8, sha256="cd" * 32, length=42)
        assert BlobRef.from_dict(ref.as_dict()) == ref


# ----------------------------------------------------------------------
# manifest layer
# ----------------------------------------------------------------------

class TestManifest:
    def test_encode_decode_round_trip(self):
        m = Manifest(epoch=3, layout={"sharded": False},
                     datasets={"ppi": {"graphs": {}}})
        again = Manifest.decode(m.encode())
        assert again.epoch == 3
        assert again.layout == {"sharded": False}
        assert again.datasets == {"ppi": {"graphs": {}}}

    def test_version_checked_before_checksum(self):
        m = Manifest(epoch=0, layout={}, datasets={})
        doc = json.loads(m.encode())
        doc["version"] = 99  # stale checksum AND wrong version
        with pytest.raises(StoreVersionSkew) as exc:
            Manifest.decode(json.dumps(doc).encode())
        assert exc.value.found == 99

    def test_stale_body_fails_checksum(self):
        m = Manifest(epoch=0, layout={}, datasets={})
        doc = json.loads(m.encode())
        doc["epoch"] = 7  # edited without refreshing the checksum
        with pytest.raises(ManifestError, match="checksum"):
            Manifest.decode(json.dumps(doc).encode())

    def test_missing_store_is_store_missing(self, tmp_path):
        with pytest.raises(StoreMissing):
            load_manifest(str(tmp_path / "nowhere"))

    def test_torn_manifest_write_reads_as_no_store(self, tmp_path):
        root = str(tmp_path)
        m = Manifest(epoch=0, layout={}, datasets={})
        write_manifest(root, m, fail_after=10)  # simulated crash
        with pytest.raises(StoreMissing):
            load_manifest(root)
        # a reader over the half-written store degrades silently
        reader = StoreReader(root)
        assert reader.manifest is None

    def test_torn_writer_manifest_means_no_store(self, tmp_path):
        """A crash between blobs and manifest (the writer's last step)
        leaves a store indistinguishable from no store at all."""
        catalog = DatasetCatalog()
        catalog.load("ppi", scale="tiny")
        root = str(tmp_path / "store")
        StoreWriter(root, fail_manifest_after=32).write_catalog(catalog)
        reader = StoreReader(root)
        assert reader.manifest is None
        # and a service pointed at it just warms fresh, digest-clean
        svc = ftv_service(store=root)
        assert svc.catalog.store.restores == 0


# ----------------------------------------------------------------------
# digest identity: cold boot == fresh warm
# ----------------------------------------------------------------------

class TestColdBootDigests:
    def assert_identical(self, fresh_report, booted_report,
                         fresh_svc, booted_svc):
        assert booted_report.digest == fresh_report.digest
        assert booted_report.answers == fresh_report.answers
        assert (
            sorted(booted_svc.stats().keys())
            == sorted(fresh_svc.stats().keys())
        )

    def test_one_shard(self, ppi_graphs, tmp_path):
        root, _, summary = warm_store(tmp_path)
        assert summary["blobs"] >= 2  # graphs + index
        fresh = ftv_service()
        booted = ftv_service(store=root)
        assert booted.catalog.store.restores >= 2
        assert booted.catalog.store.rebuilds == 0
        self.assert_identical(
            run_workload(fresh, ppi_graphs),
            run_workload(booted, ppi_graphs),
            fresh, booted,
        )

    @pytest.mark.parametrize("name", ["ppi", "yeast"])
    def test_a_plain_catalog_is_written_as_the_one_shard_it_is(
        self, name, tmp_path
    ):
        """``write_catalog(DatasetCatalog)`` writes the one layout with
        one shard, and ``Service(shards=1, store=...)`` restores from
        it: graphs and (FTV) index off their blobs, nothing rebuilt."""
        catalog = DatasetCatalog()
        entry = catalog.load(name, scale="tiny")
        root = str(tmp_path / "store")
        StoreWriter(root).write_catalog(catalog)
        manifest = load_manifest(root)
        assert manifest.layout == {
            "sharded": True, "num_shards": 1,
            "assignment": "size_balanced", "replicas": 1,
        }
        record = manifest.datasets[name]
        slots = len(entry.graphs)
        assert record["assignment"] == [list(range(slots))]
        assert record["home_shard"] == 0
        assert list(record["indexes"]) == (["0"] if name == "ppi" else [])
        booted = Service(workers=4, store=root)
        booted.load_dataset(name, scale="tiny")
        reader = booted.catalog.store
        assert reader.restores == 1 + len(record["indexes"])
        assert reader.rebuilds == reader.misses == 0
        assert reader.bytes_read > 0
        if name == "ppi":
            fresh = ftv_service()
            probes = [
                q.graph for q in generate_workload(
                    entry.graphs, 5, 3, seed=11
                )
            ]
            assert collection_digest(booted, "ppi", probes) == (
                collection_digest(fresh, "ppi", probes)
            )

    def test_sharded_routed(self, ppi_graphs, tmp_path):
        root, _, _ = warm_store(tmp_path, shards=2)
        fresh = ftv_service(shards=2, routing=True)
        booted = ftv_service(shards=2, routing=True, store=root)
        assert booted.catalog.store.restores >= 3  # graphs + 2 indexes
        self.assert_identical(
            run_workload(fresh, ppi_graphs),
            run_workload(booted, ppi_graphs),
            fresh, booted,
        )

    def test_replicated(self, ppi_graphs, tmp_path):
        root, _, _ = warm_store(tmp_path, shards=2, replicas=2)
        fresh = ftv_service(shards=2, replicas=2)
        booted = ftv_service(shards=2, replicas=2, store=root)
        self.assert_identical(
            run_workload(fresh, ppi_graphs),
            run_workload(booted, ppi_graphs),
            fresh, booted,
        )

    def test_restored_warm_state_is_byte_identical(self, tmp_path):
        """Stronger than digests: re-encoding the restored index
        reproduces the persisted blob byte for byte."""
        from repro.store.codec import encode_index

        root, catalog, _ = warm_store(tmp_path)
        restored = ftv_service(store=root)
        assert restored.catalog.store.rebuilds == 0
        original = catalog.get("ppi").shard_entry(0).ftv_index
        revived = restored.catalog.get("ppi").shard_entry(0).ftv_index
        assert encode_index(revived) == encode_index(original)

    def test_layout_mismatch_falls_back_to_build(
        self, ppi_graphs, tmp_path
    ):
        """A one-shard store cannot boot a two-shard catalog — the
        mismatch is counted as a miss and the warm build proceeds."""
        root, _, _ = warm_store(tmp_path)  # one shard
        booted = ftv_service(shards=2, store=root)  # two
        assert booted.catalog.store.restores == 0
        assert booted.catalog.store.misses >= 1
        fresh = ftv_service(shards=2)
        assert (
            run_workload(booted, ppi_graphs).digest
            == run_workload(fresh, ppi_graphs).digest
        )


# ----------------------------------------------------------------------
# corruption matrix
# ----------------------------------------------------------------------

BLOB_FAULTS = ("torn_write", "truncate", "bit_flip", "delete_blob")
MANIFEST_FAULTS = ("version_skew", "stale_manifest")


class TestCorruptionMatrix:
    @pytest.fixture(scope="class")
    def healthy(self, ppi_graphs):
        svc = ftv_service()
        return run_workload(svc, ppi_graphs)

    @pytest.mark.parametrize("kind", BLOB_FAULTS)
    def test_blob_fault_detected_quarantined_rebuilt(
        self, kind, ppi_graphs, tmp_path, healthy
    ):
        root, _, _ = warm_store(tmp_path)
        StoreFaultInjector(root, seed=0).inject(kind)
        svc = ftv_service(store=root)
        reader = svc.catalog.store
        assert reader.corrupt_detected >= 1, kind
        assert reader.rebuilds >= 1, kind
        if kind != "delete_blob":  # nothing left to move aside
            assert reader.quarantined >= 1, kind
            quarantine = os.path.join(root, "quarantine")
            assert os.listdir(quarantine), kind
        assert reader.events, kind
        report = run_workload(svc, ppi_graphs)
        assert report.digest == healthy.digest, kind
        assert report.answers == healthy.answers, kind

    @pytest.mark.parametrize("kind", MANIFEST_FAULTS)
    def test_manifest_fault_quarantines_manifest(
        self, kind, ppi_graphs, tmp_path, healthy
    ):
        root, _, _ = warm_store(tmp_path)
        StoreFaultInjector(root, seed=0).inject(kind)
        svc = ftv_service(store=root)
        reader = svc.catalog.store
        assert reader.corrupt_detected >= 1, kind
        assert reader.manifest is None  # store reads as absent
        assert reader.restores == 0
        report = run_workload(svc, ppi_graphs)
        assert report.digest == healthy.digest, kind

    def test_duplicate_manifest_is_harmless(
        self, ppi_graphs, tmp_path, healthy
    ):
        """A crashed writer's leftover temp manifest is ignored by
        design: the atomic-rename protocol means only the real
        MANIFEST.json is ever read."""
        root, _, _ = warm_store(tmp_path)
        StoreFaultInjector(root, seed=0).inject("duplicate_manifest")
        svc = ftv_service(store=root)
        reader = svc.catalog.store
        assert reader.corrupt_detected == 0
        assert reader.restores >= 2
        assert run_workload(svc, ppi_graphs).digest == healthy.digest

    def test_every_fault_class_is_exercised(self):
        assert set(BLOB_FAULTS) | set(MANIFEST_FAULTS) | {
            "duplicate_manifest"
        } == set(StoreFaultInjector.CORRUPTIONS)

    def test_corrupt_graphs_blob_still_restores_shard_indexes(
        self, tmp_path
    ):
        """Sharded layout, graphs blob corrupt, index blobs intact:
        graphs rebuild from their deterministic recipe (same label
        codes), so the per-shard index blobs stay valid and restore."""
        root, _, _ = warm_store(tmp_path, shards=2)
        rec = StoreReader(root).dataset_record("ppi")
        graphs_addr = rec["graphs"]["address"]
        inj = StoreFaultInjector(root, seed=0)
        idx = [
            i for i, p in enumerate(inj.blob_paths())
            if graphs_addr in p
        ][0]
        inj.bit_flip(index=idx)
        svc = ftv_service(shards=2, store=root)
        reader = svc.catalog.store
        assert reader.corrupt_detected == 1
        assert reader.rebuilds == 1  # the graphs
        assert reader.restores == 2  # both shard indexes, from blobs


# ----------------------------------------------------------------------
# the elastic drill: add_replica under chaos boots from the store
# ----------------------------------------------------------------------

class TestElasticDrill:
    def test_a_dark_shard_regrows_from_the_store(
        self, ppi_graphs, tmp_path
    ):
        """Every replica of shard 0 dies mid-load: the first regrow
        re-warms the shard from its blob, the second joins it warm, and
        the tickets the blackout refused answer as healthy once
        retried."""
        healthy = run_workload(
            ftv_service(shards=2, replicas=2), ppi_graphs
        )
        root, _, _ = warm_store(tmp_path, shards=2, replicas=2)
        svc = ftv_service(shards=2, replicas=2, store=root)
        restores = svc.catalog.store.restores
        faults = FaultInjector([
            FaultEvent(at=3, kind="kill", shard=0, replica=r,
                       unit="completions", seq=r)
            for r in range(2)
        ])
        report = run_workload(
            svc, ppi_graphs, faults=faults, regrow=True
        )
        assert report.lost == 0
        assert [(r["shard"], r["from_store"]) for r in report.regrown] == [
            (0, True), (0, False),
        ]
        assert svc.catalog.store.restores == restores + 1
        assert svc.catalog.store.rebuilds == 0
        # each grow left a synthetic negative-id trace; only the one
        # that found the shard dark read the store
        boots = []
        for i in range(len(report.regrown)):
            trace = svc.trace(-(i + 1))
            assert trace is not None and trace.done
            boots.append(trace.find("store_boot")[0].attrs["restores"])
        assert boots[0] >= 1 and boots[1] == 0
        # a refused ticket's client retries after its retry_after
        retried = [
            svc.submit("ppi", t.query, tenant=t.tenant, options=FTV_OPTS)
            for t in report.tickets
            if t.degraded
        ]
        svc.run_until_idle()
        answered = [t for t in report.tickets if not t.degraded]
        assert answers_digest(answered + retried) == healthy.answers

    def test_a_regrow_beside_a_live_sibling_warms_nothing(self, tmp_path):
        root, _, _ = warm_store(tmp_path, shards=2, replicas=2)
        svc = ftv_service(shards=2, replicas=2, store=root)
        sub = svc.catalog.get("ppi").shard_entry(0)
        restores = svc.catalog.store.restores
        svc.kill_replica(0, 0)
        assert svc.add_replica(0) == 2
        assert svc.catalog.store.restores == restores
        assert svc.catalog.get("ppi").shard_entry(0) is sub

    def test_add_replica_without_store_shares_the_warm_partition(self):
        catalog = ShardedCatalog(num_shards=2)
        entry = catalog.load("ppi", scale="tiny")
        sub = entry.shard_entry(0)
        ReplicaSet(catalog, Dispatcher(pools=2)).add(0)
        assert entry.shard_entry(0) is sub

    def test_service_store_metrics_surface(self, tmp_path):
        root, _, _ = warm_store(tmp_path)
        svc = ftv_service(store=root)
        metrics = svc.store_metrics()
        assert metrics["restores"] >= 2
        snapshot = dict(svc.metrics.snapshot())
        assert snapshot["store.restores"] == metrics["restores"]
        assert ftv_service().store_metrics() == {}

    def test_memory_report_leaves_the_store_to_store_metrics(
        self, tmp_path
    ):
        root, _, _ = warm_store(tmp_path)
        svc = ftv_service(store=root)
        assert "store" not in svc.memory()
        assert svc.memory()["total_bytes"] > 0


# ----------------------------------------------------------------------
# the index payload format, and upgrading a store from the one before
# ----------------------------------------------------------------------

def index_payload(blob: bytes) -> tuple[dict, dict]:
    """An index blob taken apart: (header, column name -> bytes)."""
    head, _, body = zlib.decompress(blob).partition(b"\n")
    header = json.loads(head)
    columns, at = {}, 0
    for name, _ in INDEX_COLUMNS:
        columns[name] = body[at:at + header["columns"][name]]
        at += header["columns"][name]
    assert at == len(body)
    return header, columns


def index_blob(header: dict, columns: dict) -> bytes:
    """The inverse of :func:`index_payload`; ``header["columns"]`` is
    written as given, so a test can make it lie."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    body = b"".join(columns[name] for name, _ in INDEX_COLUMNS)
    return zlib.compress(head.encode() + b"\n" + body, 4)


def recut_blob(header: dict, columns: dict, **changed) -> bytes:
    """An index blob with some columns replaced and the header's byte
    lengths brought back in line — the damage is then between the
    columns, not between the header and the body."""
    columns = {**columns, **changed}
    lengths = {name: len(col) for name, col in columns.items()}
    return index_blob({**header, "columns": lengths}, columns)


class TestIndexBlobFormat:
    """The index codec's bytes are a compatibility surface: the same
    warm state must keep encoding to the same content address, and a
    blob of any other shape must fail as :class:`CodecError` (which
    the reader turns into quarantine + rebuild), never decode wrong."""

    #: sha256 of ``encode_index`` over ppi/tiny, ``columns+zlib/4``
    PINNED = {
        GrapesIndex: (
            "8c9cc46c6af9b359fbc74cc02fb1e050"
            "a4e74eb6299f4c796362e52f0819f07f"
        ),
        GGSXIndex: (
            "dee00161362e4b5a1a9bee53c5ad6ff0"
            "7a9ead650d48759fcf732d7f8840c178"
        ),
    }

    #: the same indexes as ``columns+zlib/3`` wrote them in PR 21, with
    #: every Grapes posting's location mask (the pins that stood here
    #: then), so the upgrade drill's parent-commit blobs are the real
    #: parent-commit bytes
    PINNED_V3 = {
        GrapesIndex: (
            "1242fe7560bde63bf085779e7ab31af1"
            "2df02099ff28ee0a458439ded49fcc7e"
        ),
        GGSXIndex: (
            "7fc62ccbfdeadc1cffb15b46d1a91abf"
            "bb3cb9e70b82d5253cca0d1a432b7aa2"
        ),
    }

    @pytest.fixture(scope="class")
    def grapes_blob(self, ppi_graphs):
        return encode_index(GrapesIndex(list(ppi_graphs)))

    @pytest.mark.parametrize("cls", [GrapesIndex, GGSXIndex])
    def test_encoded_bytes_are_pinned_and_round_trip(
        self, cls, ppi_graphs
    ):
        built = cls(list(ppi_graphs))
        blob = encode_index(built)
        assert sha256_hex(blob) == self.PINNED[cls]
        restored = decode_index(
            blob, list(ppi_graphs), index_method(built),
            built.max_path_length,
        )
        assert encode_index(restored) == blob
        assert sha256_hex(encode_index_v3(built)) == self.PINNED_V3[cls]

    @pytest.mark.parametrize("cls", [GrapesIndex, GGSXIndex])
    def test_bytes_do_not_depend_on_who_verified(self, cls, ppi_graphs):
        """Grapes derives a graph's locations the first time it
        verifies against it; the blob is the warm state and holds
        none, so its address is the same before and after."""
        index = cls(list(ppi_graphs))
        assert sha256_hex(encode_index(index)) == self.PINNED[cls]
        view = index.with_threads(4) if cls is GrapesIndex else index
        verified = set()
        for q in generate_workload(list(ppi_graphs), 5, 4, seed=11):
            verified.update(view.query(q.graph).candidate_ids)
        assert verified
        if cls is GrapesIndex:  # ... on the trie both views share
            assert index.trie.locations.keys() == verified
        assert sha256_hex(encode_index(index)) == self.PINNED[cls]
        assert sha256_hex(encode_index(view)) == self.PINNED[cls]

    def test_header_is_one_json_line_and_tags_differ(self, grapes_blob):
        header, columns = index_payload(grapes_blob)
        assert header["kind"] == "index"
        assert header["codec"] == INDEX_CODEC != CODEC
        assert (header["method"], header["max_path_length"]) == (
            "Grapes", 3
        )
        assert list(header["columns"]) == sorted(
            name for name, _ in INDEX_COLUMNS
        )
        # a posting is a graph id and a count, nothing else
        assert len(columns["graph_id"]) == len(columns["count"]) == 4 * sum(
            struct.unpack(
                f"<{len(columns['row_postings']) // 4}I",
                columns["row_postings"],
            )
        )

    def test_a_restored_suffix_trie_does_not_re_expand(self, ppi_graphs):
        built = GGSXIndex(list(ppi_graphs))
        restored = decode_index(
            encode_index(built), list(ppi_graphs), "GGSX", 3
        )
        assert restored.trie.node_count == built.trie.node_count
        assert restored.trie.postings == built.trie.postings

    @pytest.mark.parametrize("cls", [GrapesIndex, GGSXIndex])
    def test_a_restore_after_a_remove_warms_as_its_source(self, cls):
        """A partition written after a remove boots with the warm
        statistics of the index it was written from: both count the
        trie over the paths that still have postings.  (A trie that
        kept the removed graph's emptied nodes reported 2 179 Grapes
        nodes live against 2 010 restored here, GGSX 2 214 against
        2 046.)"""
        graphs = ppi_like(num_graphs=4, avg_nodes=80, num_labels=8, seed=3)
        live = cls(list(graphs))
        fresh = live.warm()
        live.remove_graphs([2])
        restored = decode_index(
            encode_index(live), list(graphs), index_method(live), 3
        )
        assert restored.warm() == live.warm()
        assert live.warm()["trie_nodes"] < fresh["trie_nodes"]

    def test_healthy_payload_survives_the_test_helpers(
        self, ppi_graphs, grapes_blob
    ):
        """The matrix below damages what these helpers rebuild; first
        prove an undamaged rebuild decodes (and is the same bytes)."""
        header, columns = index_payload(grapes_blob)
        assert index_blob(header, columns) == grapes_blob
        decode_index(grapes_blob, list(ppi_graphs), "Grapes", 3)

    MALFORMED = {
        "not_zlib": lambda h, c: b"RJL1 not a zlib stream",
        "truncated_zlib_stream": lambda h, c: index_blob(h, c)[:-40],
        "no_header_line": lambda h, c: zlib.compress(b"\x00" * 64),
        "header_not_an_object": lambda h, c: zlib.compress(b"[1]\n"),
        "graphs_kind": lambda h, c: index_blob({**h, "kind": "graphs"}, c),
        "previous_tag": lambda h, c: index_blob({**h, "codec": CODEC}, c),
        "parent_commit_tag": lambda h, c: index_blob(
            {**h, "codec": "columns+zlib/3"}, c
        ),
        "unknown_tag": lambda h, c: index_blob(
            {**h, "codec": "columns+zlib/5"}, c
        ),
        "wrong_method": lambda h, c: index_blob({**h, "method": "GGSX"}, c),
        "wrong_max_path_length": lambda h, c: index_blob(
            {**h, "max_path_length": 4}, c
        ),
        "truncated_body": lambda h, c: index_blob(
            h, {**c, "count": c["count"][:-7]}
        ),
        "trailing_bytes": lambda h, c: index_blob(
            h, {**c, "count": c["count"] + b"\x01"}
        ),
        "columns_not_a_mapping": lambda h, c: index_blob(
            {**h, "columns": [1, 2, 3]}, c
        ),
        "column_missing": lambda h, c: index_blob({**h, "columns": {
            k: v for k, v in h["columns"].items() if k != "count"
        }}, c),
        "column_length_negative": lambda h, c: index_blob({**h, "columns": {
            **h["columns"], "path_len": -1,
            "count": h["columns"]["count"] + h["columns"]["path_len"] + 1,
        }}, c),
        "column_length_not_an_int": lambda h, c: index_blob(
            {**h, "columns": {**h["columns"], "count": "12"}}, c
        ),
        "column_splits_an_item": lambda h, c: index_blob({**h, "columns": {
            **h["columns"],
            "graph_id": h["columns"]["graph_id"] - 1,
            "count": h["columns"]["count"] + 1,
        }}, c),
        "count_column_one_short": lambda h, c: recut_blob(
            h, c, count=c["count"][:-4]
        ),
        "row_column_one_short": lambda h, c: recut_blob(
            h, c, row_postings=c["row_postings"][:-4]
        ),
        "path_codes_one_short": lambda h, c: recut_blob(
            h, c, code=c["code"][:-4]
        ),
        "graph_id_outside_the_partition": lambda h, c: index_blob(
            h, {**c, "graph_id": struct.pack("<I", 10**6) + c["graph_id"][4:]}
        ),
        "graph_id_repeated_in_a_row": lambda h, c: index_blob(
            h, {**c, "graph_id": c["graph_id"][:4] * 2 + c["graph_id"][8:]}
        ),
        # the first two rows are (0,) and (0, 0): trade their lengths
        "rows_out_of_order": lambda h, c: index_blob(h, {
            **c, "path_len": c["path_len"][1::-1] + c["path_len"][2:],
        }),
        # the last row's last label: still in path order, but a code
        # the collection's eight labels do not reach
        "label_code_unassigned": lambda h, c: index_blob(
            h, {**c, "code": c["code"][:-4] + struct.pack("<I", 10**6)}
        ),
        "tombstones_not_ints": lambda h, c: index_blob(
            {**h, "tombstones": ["x"]}, c
        ),
    }

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_malformed_payload_is_a_codec_error(
        self, damage, ppi_graphs, grapes_blob
    ):
        header, columns = index_payload(grapes_blob)
        blob = self.MALFORMED[damage](header, columns)
        with pytest.raises(CodecError):
            decode_index(blob, list(ppi_graphs), "Grapes", 3)

    def test_partition_size_is_checked_against_the_graphs_given(
        self, ppi_graphs, grapes_blob
    ):
        """The satellite fix: the same healthy blob, offered a smaller
        partition, is refused by the decoder — before this it decoded
        and raised ``IndexError`` at the first verify."""
        with pytest.raises(CodecError, match="partition holds"):
            decode_index(grapes_blob, list(ppi_graphs)[:-1], "Grapes", 3)

    @pytest.mark.parametrize("field, value", [
        ("count", 1 << 32),
        ("count", -1),
        ("graph_id", 1 << 32),
    ])
    def test_a_value_too_wide_for_its_column_raises_at_encode(
        self, field, value, ppi_graphs
    ):
        index = GrapesIndex(list(ppi_graphs))
        postings = next(iter(index.trie.postings.values()))
        gid = min(postings)
        if field == "count":
            postings[gid] = value
        else:
            postings[value] = postings.pop(gid)
        with pytest.raises(CodecError, match=field):
            encode_index(index)


class TestFormatUpgrade:
    """A store whose index blobs are the previous format,
    ``columns+zlib/3`` (the one compatibility window ``docs/STORE.md``
    promises): the manifest, graphs, assignment, tombstones, label
    table (or, without one, the code space interned afresh) and journal
    high-water restore as before; the index blobs fail the tag check,
    are quarantined and rebuilt once, loudly; the next checkpoint
    writes the new format (and the table) and the boot after it
    rebuilds nothing."""

    @pytest.mark.parametrize("label_table", [True, False])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_parent_commit_store_rebuilds_once_then_restores(
        self, shards, label_table, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "store")
        live = ftv_service(shards=shards, journal=root)
        entry = live.catalog.get("ppi")
        base = len(entry.graphs)
        # a newcomer with a label the collection never saw: the code
        # order is then no longer the sorted label set
        live.add_graph("ppi", relabelled(entry.graphs[1], "!novel"))
        live.pump()
        live.remove_graph("ppi", 0)
        live.pump()
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.store.writer.encode_index", encode_index_v3
            )
            summary = live.checkpoint_store(root)
        assert summary["journal_seq"] == 1
        manifest = load_manifest(root)
        assert manifest.datasets["ppi"]["labels"][-1] == "!novel"
        if not label_table:
            # the record as a writer before the label table left it:
            # the reader interns the restored graphs' labels afresh
            del manifest.datasets["ppi"]["labels"]
            write_manifest(root, manifest)

        booted = ftv_service(shards=shards, store=root, journal=root)
        booted.replay_journal()
        reader = booted.catalog.store
        undecodable = [
            e for e in reader.events if e["event"] == "blob_undecodable"
        ]
        assert len(undecodable) == shards
        assert all("columns+zlib/3" in e["error"] for e in undecodable)
        assert reader.rebuilds == shards  # the indexes, and only they
        assert reader.restores == 1  # the graphs blob
        assert booted.mutations.replayed.value == 0
        restored = booted.catalog.get("ppi")
        assert len(restored.graphs) == base + 1  # the add came off disk
        assert 0 not in restored.live_graph_ids()
        assert sorted(restored.live_graph_ids()) == sorted(
            entry.live_graph_ids()
        )
        probes = [
            q.graph for q in generate_workload(
                [entry.graphs[g] for g in entry.live_graph_ids()],
                5, 3, seed=11,
            )
        ]
        assert collection_digest(booted, "ppi", probes) == (
            collection_digest(live, "ppi", probes)
        )

        booted.checkpoint_store(root)
        assert "!novel" in load_manifest(root).datasets["ppi"]["labels"]
        again = ftv_service(shards=shards, store=root, journal=root)
        assert again.catalog.store.rebuilds == 0
        assert again.catalog.store.corrupt_detected == 0
        assert again.catalog.store.restores == 1 + shards
        assert collection_digest(again, "ppi", probes) == (
            collection_digest(live, "ppi", probes)
        )


class TestLayoutUpgrade:
    """A store in the ``sharded: false`` layout the unsharded service
    wrote through PR 22 (frozen in ``tests/_store_layout_unsharded.py``)
    matches no catalog any more: it is one logged ``layout_mismatch``,
    nothing read, quarantined or rebuilt, a fresh warm that serves as
    any other — and the next checkpoint writes the one layout, which
    the boot after it restores from."""

    def test_a_parent_commit_unsharded_store_rewarms_once_then_restores(
        self, ppi_graphs, tmp_path
    ):
        root = str(tmp_path / "store")
        catalog = ShardedCatalog(num_shards=1)
        catalog.load("ppi", scale="tiny")
        old = write_unsharded_store(root, catalog)
        assert old.layout == {"sharded": False}
        assert list(old.datasets["ppi"]["indexes"]) == ["*"]

        booted = ftv_service(store=root)
        reader = booted.catalog.store
        assert [
            e["dataset"] for e in reader.events
            if e["event"] == "layout_mismatch"
        ] == ["ppi"]
        assert reader.misses == 1
        assert reader.restores == reader.rebuilds == 0
        assert reader.blobs_verified == reader.corrupt_detected == 0
        healthy = run_workload(ftv_service(), ppi_graphs)
        served = run_workload(booted, ppi_graphs)
        assert served.digest == healthy.digest
        assert served.answers == healthy.answers

        summary = booted.checkpoint_store(root)
        assert summary["epoch"] == 1
        manifest = load_manifest(root)
        assert manifest.layout["sharded"] is True
        assert list(manifest.datasets["ppi"]["indexes"]) == ["0"]
        again = ftv_service(store=root)
        assert again.catalog.store.restores == 2  # graphs + index
        assert again.catalog.store.rebuilds == 0
        assert again.catalog.store.misses == 0
        assert run_workload(again, ppi_graphs).digest == healthy.digest


class TestLabelTable:
    """The dataset record's ``labels`` is the code space every index
    blob of the collection is written in.  It is either what the
    writer stored — a list of pairwise distinct labels that covers the
    restored graphs — or it is refused whole: a miss, one
    ``labels_mismatch`` event, no index blob read, a fresh build that
    answers as any other."""

    REFUSED = {
        # enumerating it would code the characters
        "a_string": lambda labels: "".join(labels),
        # a repeat leaves the first code unassigned
        "a_repeated_label": lambda labels: labels[:1] + labels,
        "a_live_label_missing": lambda labels: labels[1:],
        "an_unhashable_entry": lambda labels: [[lab] for lab in labels],
        "not_a_list": lambda labels: dict.fromkeys(labels, 0),
    }

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("damage", sorted(REFUSED))
    def test_a_malformed_table_is_refused_whole(
        self, damage, shards, ppi_graphs, tmp_path
    ):
        root, _, _ = warm_store(tmp_path, shards=shards)
        manifest = load_manifest(root)
        record = manifest.datasets["ppi"]
        assert record["labels"] == sorted(
            {lab for g in ppi_graphs for lab in g.labels}
        )
        record["labels"] = self.REFUSED[damage](record["labels"])
        write_manifest(root, manifest)
        booted = ftv_service(shards=shards, store=root)
        reader = booted.catalog.store
        assert [
            e["dataset"] for e in reader.events
            if e["event"] == "labels_mismatch"
        ] == ["ppi"]
        assert reader.misses == 1
        assert reader.blobs_verified == 1  # the graphs; no index blob
        assert reader.corrupt_detected == reader.quarantined == 0
        fresh = ftv_service(shards=shards)
        assert (
            run_workload(booted, ppi_graphs).digest
            == run_workload(fresh, ppi_graphs).digest
        )

    def test_only_a_collection_has_one(self, tmp_path):
        root, _, _ = warm_store(tmp_path, name="yeast")
        assert "labels" not in load_manifest(root).datasets["yeast"]


class TestServedFilter:
    """A dataset record names the filter its index blobs were built
    with, and every collection is served through one filter
    (``SERVED_FTV_METHOD`` over paths of up to ``SERVED_PATH_LENGTH``
    edges).  A record naming another is one logged
    ``config_mismatch`` miss — not corruption: nothing read or
    quarantined — and a fresh build that answers as any other."""

    @pytest.mark.parametrize("field, value", [
        ("max_path_length", 2),
        ("ftv_method", "GGSX"),
    ])
    def test_a_record_naming_another_filter_is_a_miss(
        self, field, value, ppi_graphs, tmp_path
    ):
        root, _, _ = warm_store(tmp_path)
        manifest = load_manifest(root)
        record = manifest.datasets["ppi"]
        assert (record["ftv_method"], record["max_path_length"]) == (
            SERVED_FTV_METHOD, SERVED_PATH_LENGTH
        )
        record[field] = value
        write_manifest(root, manifest)
        booted = ftv_service(store=root)
        reader = booted.catalog.store
        assert [e["event"] for e in reader.events] == ["config_mismatch"]
        assert reader.misses == 1
        assert reader.restores == reader.blobs_verified == 0
        assert reader.corrupt_detected == reader.quarantined == 0
        healthy = run_workload(ftv_service(), ppi_graphs)
        served = run_workload(booted, ppi_graphs)
        assert served.answers == healthy.answers
        assert served.digest == healthy.digest


# ----------------------------------------------------------------------
# writer behavior
# ----------------------------------------------------------------------

class TestWriter:
    def test_epoch_bumps_on_rewrite(self, tmp_path):
        root, catalog, first = warm_store(tmp_path)
        assert first["epoch"] == 0
        second = StoreWriter(root).write_catalog(catalog)
        assert second["epoch"] == 1
        assert StoreReader(root).manifest.epoch == 1

    #: sha256 over the sorted relative paths and the bytes of the
    #: one-shard store below, as the writer wrote it while a shard's
    #: partition was a catalog of its own
    ONE_SHARD_STORE = (
        "753d04229f93e220423e939044244cb24e8aac37e9dedbc1352d127d81082c8b"
    )

    @staticmethod
    def _tree_sha256(root) -> str:
        digest = hashlib.sha256()
        for path in sorted(
            p.relative_to(root).as_posix()
            for p in root.rglob("*") if p.is_file()
        ):
            digest.update(path.encode())
            digest.update((root / path).read_bytes())
        return digest.hexdigest()

    def test_one_shard_store_bytes_are_pinned(self, tmp_path):
        """A ``DatasetCatalog`` view and a ``ShardedCatalog`` of one
        shard holding the same mutated datasets write the same store,
        byte for byte, and it is the pinned one."""
        digests = []
        for catalog, shard in (
            (DatasetCatalog(), {}),
            (ShardedCatalog(num_shards=1), {"shard": 0}),
        ):
            catalog.load("yeast", scale="tiny", algorithms=("GQL", "SPA"))
            catalog.load("ppi", scale="tiny")
            newcomer = build_ftv_graphs("synthetic", "tiny")[0]
            catalog.add_graph("ppi", newcomer, **shard)
            catalog.remove_graph("ppi", 1)
            root = tmp_path / type(catalog).__name__
            StoreWriter(str(root)).write_catalog(catalog)
            digests.append(self._tree_sha256(root))
        assert digests == [self.ONE_SHARD_STORE] * 2

    def test_verify_all_reports_clean_store(self, tmp_path):
        root, _, _ = warm_store(tmp_path)
        report = StoreReader(root).verify_all()
        assert report["manifest"] is True
        assert report["blobs_bad"] == 0
        assert report["blobs_ok"] >= 2
        assert set(report["datasets"]) == {"ppi"}
