"""Versioned, content-addressed on-disk store for warmed artifacts.

The catalog invariant (``repro.service.catalog``) says the same name,
scale, and configuration always produce the same frozen graphs and
warm indexes — so a replica could always rebuild from scratch.  What
it cannot do from scratch is boot *fast*: warming pays the full
path-census DFS over every stored graph.  This package trades that
for O(read): ``repro warm --store DIR`` persists the warm state once,
and any later process restores it digest-identical to a fresh build.

Layering (each module trusts only the ones below it):

* :mod:`~repro.store.blobs` — content-addressed blobs, atomic writes,
  verified reads, quarantine;
* :mod:`~repro.store.manifest` — the versioned, self-checksummed root
  document;
* :mod:`~repro.store.codec` — graphs / warm-trie payload formats;
* :mod:`~repro.store.writer` — :class:`StoreWriter` (catalog → disk);
* :mod:`~repro.store.reader` — :class:`StoreReader` (disk → catalog,
  with the corruption taxonomy's detection + recovery matrix).

Fault injection for all of it lives with the other chaos tooling as
:class:`repro.service.faults.StoreFaultInjector`.
"""

from .blobs import (
    BlobCorrupt,
    BlobMissing,
    BlobRef,
    BlobStore,
    StoreError,
    atomic_write_bytes,
    sha256_hex,
)
from .codec import CODEC, INDEX_CODEC, CodecError
from .journal import (
    JOURNAL_NAME,
    JournalCorrupt,
    JournalCrash,
    JournalError,
    JournalRecord,
    MutationJournal,
    RecoveryReport,
)
from .manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    Manifest,
    ManifestError,
    StoreMissing,
    StoreVersionSkew,
    load_manifest,
    write_manifest,
)
from .reader import StoreReader
from .writer import StoreWriter

__all__ = [
    "BlobCorrupt",
    "BlobMissing",
    "BlobRef",
    "BlobStore",
    "CODEC",
    "CodecError",
    "INDEX_CODEC",
    "JOURNAL_NAME",
    "JournalCorrupt",
    "JournalCrash",
    "JournalError",
    "JournalRecord",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Manifest",
    "ManifestError",
    "MutationJournal",
    "RecoveryReport",
    "StoreError",
    "StoreMissing",
    "StoreReader",
    "StoreVersionSkew",
    "StoreWriter",
    "atomic_write_bytes",
    "load_manifest",
    "sha256_hex",
    "write_manifest",
]
