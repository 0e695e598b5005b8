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
  in-process warm, across unsharded, sharded+routed, and replicated
  layouts.
* **Corruption matrix** — every :class:`StoreFaultInjector` class is
  detected on load and degrades to a per-graph rebuild whose digests
  equal the healthy run's.
* **Elastic drill** — ``Service.add_replica`` under live chaos load
  boots newcomers from the store with zero lost tickets, digest-equal
  to a healthy never-persisted run.
"""

import json
import os

import pytest

from repro.harness import build_ftv_graphs
from repro.indexing import GGSXIndex, GrapesIndex
from repro.service import (
    AdmissionController,
    FaultEvent,
    FaultInjector,
    QueryOptions,
    Service,
    TenantPolicy,
    run_closed_loop,
)
from repro.service.catalog import DatasetCatalog
from repro.service.faults import StoreFaultInjector
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
from repro.store.codec import (
    CODEC,
    CodecError,
    _pack,
    decode_index,
    encode_index,
    index_method,
)
from repro.workload import default_tenant_mixes, generate_tenant_stream

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
    if shards > 1 or replicas > 1:
        catalog = ShardedCatalog(num_shards=shards, replicas=replicas)
    else:
        catalog = DatasetCatalog()
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
        assert open(path, "rb").read() == b"payload"
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
        raw = bytearray(open(path, "rb").read())
        raw[37] ^= 0x01
        open(path, "wb").write(bytes(raw))
        with pytest.raises(BlobCorrupt):
            bs.get(ref)

    def test_truncation_detected_by_length_first(self, tmp_path):
        bs = BlobStore(str(tmp_path))
        ref = bs.put(b"z" * 512)
        path = bs.path_for(ref.address)
        open(path, "wb").write(b"z" * 100)
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
        assert not reader.available()

    def test_torn_writer_manifest_means_no_store(self, tmp_path):
        """A crash between blobs and manifest (the writer's last step)
        leaves a store indistinguishable from no store at all."""
        catalog = DatasetCatalog()
        catalog.load("ppi", scale="tiny")
        root = str(tmp_path / "store")
        StoreWriter(root, fail_manifest_after=32).write_catalog(catalog)
        reader = StoreReader(root)
        assert not reader.available()
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

    def test_unsharded(self, ppi_graphs, tmp_path):
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
        restored = DatasetCatalog(store=root)
        restored.load("ppi", scale="tiny")
        original = catalog.get("ppi").ftv_index
        revived = restored.get("ppi").ftv_index
        assert encode_index(revived) == encode_index(original)

    def test_layout_mismatch_falls_back_to_build(
        self, ppi_graphs, tmp_path
    ):
        """An unsharded store cannot boot a sharded catalog — the
        mismatch is counted as a miss and the warm build proceeds."""
        root, _, _ = warm_store(tmp_path)  # unsharded store
        booted = ftv_service(shards=2, store=root)  # sharded boot
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
        assert not reader.available()  # store reads as absent
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
    def test_regrow_under_chaos_digest_equals_healthy(
        self, ppi_graphs, tmp_path
    ):
        healthy = run_workload(
            ftv_service(shards=2, replicas=2), ppi_graphs
        )
        root, _, _ = warm_store(tmp_path, shards=2, replicas=2)
        svc = ftv_service(shards=2, replicas=2, store=root)
        faults = FaultInjector([
            FaultEvent(at=3 + s, kind="kill", shard=s, replica=-1,
                       unit="completions", seq=s)
            for s in range(2)
        ])
        report = run_workload(
            svc, ppi_graphs, faults=faults, regrow=True
        )
        assert report.chaos["lost"] == 0
        assert report.answers == healthy.answers
        regrown = report.store["regrown"]
        assert len(regrown) == 2  # one per killed replica
        assert all(r["from_store"] for r in regrown)
        # each boot left a synthetic negative-id trace
        for i in range(len(regrown)):
            trace = svc.trace(-(i + 1))
            assert trace is not None and trace.done
            boot = trace.find("store_boot")
            assert boot and boot[0].attrs["restores"] >= 1

    def test_add_replica_prefers_store_over_donor(self, tmp_path):
        """The elastic contract: even with a warm donor sibling, a
        store-backed add_replica restores from disk."""
        root, _, _ = warm_store(tmp_path, shards=2)
        catalog = ShardedCatalog(num_shards=2, store=root)
        catalog.load("ppi", scale="tiny")
        before = catalog.store.restores
        catalog.add_replica(0)
        assert catalog.store.restores == before + 1

    def test_add_replica_without_store_shares_donor_warm(self):
        catalog = ShardedCatalog(num_shards=2)
        catalog.load("ppi", scale="tiny")
        catalog.add_replica(0)  # no store: donor adoption, no error

    def test_service_store_metrics_surface(self, tmp_path):
        root, _, _ = warm_store(tmp_path)
        svc = ftv_service(store=root)
        metrics = svc.store_metrics()
        assert metrics["restores"] >= 2
        snapshot = dict(svc.metrics.snapshot())
        assert snapshot["store.restores"] == metrics["restores"]
        assert ftv_service().store_metrics() == {}

    def test_memory_report_carries_store_section(self, tmp_path):
        root, _, _ = warm_store(tmp_path)
        catalog = DatasetCatalog(store=root)
        catalog.load("ppi", scale="tiny")
        assert "store" in catalog.memory_report()


# ----------------------------------------------------------------------
# writer behavior
# ----------------------------------------------------------------------

class TestIndexBlobFormat:
    """The index codec's bytes are a compatibility surface: stores
    written before a change must keep booting after it."""

    #: sha256 of ``encode_index`` over ppi/tiny as PR 11 wrote it
    #: (postings held frozenset locations then; the bytes must not
    #: know the difference)
    PINNED = {
        GrapesIndex: (
            "5e6d4b1d1dd21abd7423f488c6ebde31"
            "ebfa79f5eee55359cb47c32de596a896"
        ),
        GGSXIndex: (
            "7b476ab1b60b402bba90c5560367e2ac"
            "c3e9030a8e8b771ab53bf92aee4f55d9"
        ),
    }

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

    def test_repeated_location_ids_decode_as_a_set_would(
        self, ppi_graphs
    ):
        graphs = list(ppi_graphs)
        payload = {
            "kind": "index", "codec": CODEC, "method": "Grapes",
            "max_path_length": 3,
            "postings": [[[0], [[0, 2, [5, 1, 5, 1]]]]],
        }
        index = decode_index(_pack(payload), graphs, "Grapes", 3)
        posting = index.trie.lookup((0,))[0]
        assert (posting.count, posting.locations) == (2, 0b100010)
        payload["postings"] = [[[0], [[0, 2, [-1]]]]]
        with pytest.raises(CodecError):
            decode_index(_pack(payload), graphs, "Grapes", 3)


class TestWriter:
    def test_epoch_bumps_on_rewrite(self, tmp_path):
        root, catalog, first = warm_store(tmp_path)
        assert first["epoch"] == 0
        second = StoreWriter(root).write_catalog(catalog)
        assert second["epoch"] == 1
        assert StoreReader(root).manifest.epoch == 1

    def test_registered_datasets_are_skipped(self, tmp_path, ppi_graphs):
        catalog = DatasetCatalog()
        catalog.load("ppi", scale="tiny")
        catalog.register(
            "adhoc", list(ppi_graphs), kind="ftv", ftv_method="Grapes"
        )
        summary = StoreWriter(str(tmp_path / "s")).write_catalog(
            catalog
        )
        assert summary["skipped_registered"] == ["adhoc"]
        assert summary["datasets"] == ["ppi"]

    def test_verify_all_reports_clean_store(self, tmp_path):
        root, _, _ = warm_store(tmp_path)
        report = StoreReader(root).verify_all()
        assert report["manifest"] is True
        assert report["blobs_bad"] == 0
        assert report["blobs_ok"] >= 2
        assert set(report["datasets"]) == {"ppi"}
