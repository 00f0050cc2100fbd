"""Crash-safe persistent LRU store: the serve daemon's response cache.

``repro serve`` answers a repeated request from this store instead of
recomputing it; the entries outlive the process, so they are shared
across processes and across daemon restarts.  Design constraints, in
order:

* **Crash safety.**  Every entry is written to a temporary file in the same
  directory and published with one atomic ``os.replace`` — a process killed
  mid-write leaves only an orphan temp file (swept on the next open), never
  a half-visible entry.  No separate index file exists to corrupt: the
  directory *is* the index, and recency is carried by file mtimes.
* **Corruption is a miss, never an exception.**  Entries carry a magic
  header, payload length and a BLAKE2b checksum; anything that fails to
  parse, verify, or unpickle is counted, unlinked, and reported as a miss —
  the caller recomputes and the bit-identical result is rewritten.
* **Invalidation by provenance, not by guesswork.**  The store directory
  carries a ``meta.json`` manifest (same git-SHA machinery as
  :mod:`repro.obs.manifest`).  Cached values are pure functions of their key
  *for a given tree*, so a store opened under a different code tag (git SHA
  or schema bump) wipes itself instead of serving stale values.
* **Bounded.**  ``max_entries`` / ``max_bytes`` are enforced by evicting
  the least-recently-used entries (oldest mtime; a hit refreshes the
  mtime).  A write does not rescan the directory: the handle keeps a
  running ``(entries, bytes)`` tally, seeded by one scan at open, and
  scans plus evicts only when the tally crosses a bound or every
  :attr:`DiskStore.RESCAN_EVERY` writes.  The periodic rescan is what
  sees other processes' writes, so with ``w`` writers on one directory
  the bounds can be overshot by fewer than ``(w - 1) · RESCAN_EVERY``
  entries between scans; every scan evicts back within them.

Keys are tuples of primitives (the daemon's ``("response", fingerprint)``);
the full key is stored inside the entry and compared on read, so a digest
collision degrades to a miss.

The ``io_fault`` hook exists for the chaos harness: a callable invoked
before every disk touch that may raise :class:`OSError` (e.g. a simulated
``ENOSPC``).  Write failures are swallowed and counted — a full disk
degrades the store to a pass-through, it never takes the caller down.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Tuple

__all__ = [
    "STORE_SCHEMA_VERSION",
    "DiskStore",
    "DiskStoreStats",
    "default_store_path",
    "default_store_tag",
    "summarize_store",
    "wipe_store",
]

STORE_SCHEMA_VERSION = 1

_MAGIC = b"REPRO-STORE/1"
_META_NAME = "meta.json"
_ENTRIES_DIR = "entries"
_TMP_PREFIX = ".tmp-"
_SUFFIX = ".pkl"


def default_store_path() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/store``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "store")


def default_store_tag() -> str:
    """The invalidation tag a store is opened under: schema version plus the
    git SHA of the producing tree (``unknown`` outside a checkout)."""
    from repro.obs.manifest import current_git_sha

    return f"v{STORE_SCHEMA_VERSION}+{current_git_sha()}"


def _key_digest(key: Hashable) -> str:
    """Stable filename digest of a primitive-tuple key."""
    return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()


def _encode_entry(key: Hashable, value: Any) -> bytes:
    payload = pickle.dumps((key, value), protocol=4)
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    header = b"%s\n%s\n%d\n" % (_MAGIC, digest.encode(), len(payload))
    return header + payload


def _decode_entry(data: bytes) -> Tuple[Hashable, Any]:
    """Parse + verify an entry; raises ``ValueError`` on any corruption."""
    try:
        magic, digest, length, payload = data.split(b"\n", 3)
    except ValueError:
        raise ValueError("truncated header") from None
    if magic != _MAGIC:
        raise ValueError("bad magic")
    if len(payload) != int(length):
        raise ValueError("payload length mismatch")
    if hashlib.blake2b(payload, digest_size=16).hexdigest().encode() != digest:
        raise ValueError("checksum mismatch")
    try:
        key, value = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure = corrupt
        raise ValueError(f"unpicklable payload: {exc!r}") from None
    return key, value


@dataclass(frozen=True)
class DiskStoreStats:
    """Cumulative counters of one :class:`DiskStore` handle plus the
    current on-disk footprint (entries/bytes are re-scanned per call)."""

    hits: int
    misses: int
    writes: int
    corrupt_dropped: int
    write_errors: int
    evictions: int
    invalidated: int
    entries: int
    bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "writes": self.writes,
            "corrupt_dropped": self.corrupt_dropped,
            "write_errors": self.write_errors,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "entries": self.entries,
            "bytes": self.bytes,
        }


class DiskStore:
    """Disk-backed LRU key/value store (see module docstring).

    Thread-safe (one lock around every disk touch) and multi-process-safe
    for correctness: concurrent writers of the same key race benignly (both
    publish bit-identical bytes via atomic rename), and a reader never sees
    a partial entry.
    """

    #: writes between two full directory scans, whatever the tally says
    RESCAN_EVERY = 128

    def __init__(
        self,
        root: str,
        *,
        max_entries: int = 4096,
        max_bytes: int = 256 * 1024 * 1024,
        tag: Optional[str] = None,
        io_fault: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = os.path.abspath(root)
        self.entries_dir = os.path.join(self.root, _ENTRIES_DIR)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.tag = default_store_tag() if tag is None else str(tag)
        #: chaos hook: ``io_fault(op, path)`` may raise OSError ("get"/"put")
        self.io_fault = io_fault
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt_dropped = 0
        self._write_errors = 0
        self._evictions = 0
        self._invalidated = 0
        # running footprint: exact after a scan, then our own writes and
        # unlinks (an overwrite counts as a new entry: the tally can only
        # over-estimate, so it never delays an eviction)
        self._count = 0
        self._bytes = 0
        self._writes_since_scan = 0
        self._open()

    # ------------------------------------------------------------------
    # directory lifecycle
    # ------------------------------------------------------------------
    def _open(self) -> None:
        os.makedirs(self.entries_dir, exist_ok=True)
        meta = self._read_meta()
        if meta is None or meta.get("tag") != self.tag or meta.get(
            "schema_version"
        ) != STORE_SCHEMA_VERSION:
            if meta is not None:
                # a different tree produced these entries: invalidate
                self._invalidated += self._wipe_entries()
            self._write_meta()
        # sweep crash leftovers: orphan temp files from writers that died
        # between write and rename are garbage by construction
        for name in os.listdir(self.entries_dir):
            if name.startswith(_TMP_PREFIX):
                self._unlink(os.path.join(self.entries_dir, name))
        self._rescan()

    def _read_meta(self) -> Optional[dict]:
        try:
            with open(os.path.join(self.root, _META_NAME)) as fh:
                meta = json.load(fh)
            return meta if isinstance(meta, dict) else None
        except (OSError, ValueError):
            return None

    def _write_meta(self) -> None:
        import time

        meta = {
            "schema_version": STORE_SCHEMA_VERSION,
            "tag": self.tag,
            "created_unix": time.time(),
        }
        tmp = os.path.join(self.root, _META_NAME + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, os.path.join(self.root, _META_NAME))

    def _wipe_entries(self) -> int:
        n = 0
        for name in os.listdir(self.entries_dir):
            if self._unlink(os.path.join(self.entries_dir, name)):
                n += 1
        return n

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    def _entry_path(self, key: Hashable) -> str:
        return os.path.join(self.entries_dir, _key_digest(key) + _SUFFIX)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)``; corruption and digest collisions are misses."""
        path = self._entry_path(key)
        with self._lock:
            if self.io_fault is not None:
                try:
                    self.io_fault("get", path)
                except OSError:
                    self._misses += 1
                    return False, None
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                self._misses += 1
                return False, None
            except OSError:
                self._misses += 1
                return False, None
            try:
                stored_key, value = _decode_entry(data)
            except ValueError:
                # corrupt/truncated: drop it so the rewrite starts clean
                self._corrupt_dropped += 1
                if self._unlink(path):
                    self._count -= 1
                    self._bytes -= len(data)
                self._misses += 1
                return False, None
            if stored_key != key:
                # digest collision (astronomically rare): keep the resident
                # entry, report a miss for ours
                self._misses += 1
                return False, None
            try:
                os.utime(path)  # refresh recency for LRU eviction
            except OSError:
                pass
            self._hits += 1
            return True, value

    def put(self, key: Hashable, value: Any) -> bool:
        """Publish ``key -> value`` atomically; returns False (and counts a
        write error) instead of raising when the disk misbehaves."""
        path = self._entry_path(key)
        try:
            blob = _encode_entry(key, value)
        except (pickle.PicklingError, TypeError, AttributeError):
            with self._lock:
                self._write_errors += 1
            return False
        tmp = os.path.join(
            self.entries_dir,
            f"{_TMP_PREFIX}{os.path.basename(path)}.{os.getpid()}",
        )
        with self._lock:
            try:
                if self.io_fault is not None:
                    self.io_fault("put", path)
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)  # the atomic publish
            except OSError:
                self._write_errors += 1
                self._unlink(tmp)
                return False
            self._writes += 1
            self._count += 1
            self._bytes += len(blob)
            self._writes_since_scan += 1
            if (
                self._writes_since_scan >= self.RESCAN_EVERY
                or not self._within_bounds()
            ):
                self._evict()
            return True

    def _scan(self) -> List[Tuple[str, float, int]]:
        """``(path, mtime, size)`` of every published entry."""
        out: List[Tuple[str, float, int]] = []
        try:
            names = os.listdir(self.entries_dir)
        except OSError:
            return out
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.entries_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((path, st.st_mtime, st.st_size))
        return out

    def _rescan(self) -> List[Tuple[str, float, int]]:
        """Scan the directory and reset the tally to what it holds."""
        entries = self._scan()
        self._count = len(entries)
        self._bytes = sum(size for _, _, size in entries)
        self._writes_since_scan = 0
        return entries

    def _within_bounds(self) -> bool:
        return self._count <= self.max_entries and self._bytes <= self.max_bytes

    def _evict(self) -> None:
        """Rescan, then drop least-recently-used entries until in bounds."""
        entries = self._rescan()
        if self._within_bounds():
            return
        entries.sort(key=lambda e: e[1])  # oldest mtime first = LRU
        for path, _, size in entries:
            if self._within_bounds():
                break
            if self._unlink(path):
                self._evictions += 1
                self._count -= 1
                self._bytes -= size

    def contains(self, key: Hashable) -> bool:
        return os.path.exists(self._entry_path(key))

    def clear(self) -> int:
        """Drop every entry (counters survive); returns entries removed."""
        with self._lock:
            removed = self._wipe_entries()
            self._count = self._bytes = self._writes_since_scan = 0
            return removed

    def stats(self) -> DiskStoreStats:
        with self._lock:
            entries = self._rescan()
            return DiskStoreStats(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt_dropped=self._corrupt_dropped,
                write_errors=self._write_errors,
                evictions=self._evictions,
                invalidated=self._invalidated,
                entries=len(entries),
                bytes=sum(size for _, _, size in entries),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskStore({self.root!r}, tag={self.tag!r})"


def summarize_store(root: str) -> dict:
    """Inspect a store directory **without opening it** (no invalidation
    wipe, no meta rewrite) — what ``python -m repro cache stats`` prints."""
    root = os.path.abspath(root)
    entries_dir = os.path.join(root, _ENTRIES_DIR)
    meta: Optional[dict] = None
    try:
        with open(os.path.join(root, _META_NAME)) as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        meta = None
    n = 0
    total = 0
    try:
        for name in os.listdir(entries_dir):
            if name.endswith(_SUFFIX):
                try:
                    total += os.stat(os.path.join(entries_dir, name)).st_size
                    n += 1
                except OSError:
                    continue
    except OSError:
        pass
    return {
        "path": root,
        "exists": os.path.isdir(entries_dir),
        "tag": None if meta is None else meta.get("tag"),
        "schema_version": None if meta is None else meta.get("schema_version"),
        "current_tag": default_store_tag(),
        "entries": n,
        "bytes": total,
    }


def wipe_store(root: str) -> int:
    """Remove every entry (and the meta manifest) of a store directory;
    returns the number of entry files removed.  Refuses directories that do
    not look like a store (no ``entries/`` subdirectory and no meta.json)
    unless they are empty or missing."""
    root = os.path.abspath(root)
    entries_dir = os.path.join(root, _ENTRIES_DIR)
    meta_path = os.path.join(root, _META_NAME)
    if not os.path.isdir(root):
        return 0
    looks_like_store = os.path.isdir(entries_dir) or os.path.exists(meta_path)
    if not looks_like_store:
        if os.listdir(root):
            raise OSError(
                errno.ENOTEMPTY,
                f"{root} does not look like a repro store; refusing to wipe",
            )
        return 0
    removed = 0
    if os.path.isdir(entries_dir):
        for name in os.listdir(entries_dir):
            try:
                os.unlink(os.path.join(entries_dir, name))
                removed += 1
            except OSError:
                pass
    try:
        os.unlink(meta_path)
    except OSError:
        pass
    return removed
