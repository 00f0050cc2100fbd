"""Crash-safe persistent key/value store of the serve daemon's responses.

``repro.store`` is a disk-backed LRU shared across processes and daemon
restarts: atomic temp-file + rename writes, checksum-verified entries
where corruption reads as a miss, and git-SHA-tagged invalidation via the
:mod:`repro.obs` manifest machinery.  ``repro serve`` keeps its
``("response", fingerprint)`` answers in it and ``repro cache`` manages
it.  See ``docs/serving.md``.

Exports load on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.store.disk": [
        "STORE_SCHEMA_VERSION",
        "DiskStore",
        "DiskStoreStats",
        "default_store_path",
        "default_store_tag",
        "summarize_store",
        "wipe_store",
    ],
})
