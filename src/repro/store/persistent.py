"""Process-global wiring between :class:`repro.store.DiskStore` and the
in-memory sweep memo cache.

The sweep cache (:mod:`repro.sweep.cache`) exposes a single persistent-tier
hook (``set_persistent_store``); this module owns the lifecycle of the store
installed there — creation, the env-var opt-in, and a scoped installer for
tests.

Persistence is **opt-in**: runs keep today's in-memory-only behavior unless
``REPRO_PERSISTENT_CACHE=1`` is set — the CLI checks it once per invocation,
for every subcommand, ``serve`` included — or a test installs a store
explicitly.  Nothing in :mod:`repro.serve` installs this tier: the daemon's
``--store-dir`` store holds only its ``("response", fingerprint)`` entries.
Opt-in keeps the tier-1 determinism contracts (jobs=N ≡ jobs=1,
cache-disabled bit-identity) independent of whatever a developer has on
disk.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional

from repro.store.disk import DiskStore, default_store_path

__all__ = [
    "active_store",
    "configure_persistent_cache",
    "disable_persistent_cache",
    "maybe_enable_from_env",
    "persistent_cache_scope",
]

_active: Optional[DiskStore] = None


def active_store() -> Optional[DiskStore]:
    """The DiskStore currently backing the sweep memo cache, if any."""
    return _active


def configure_persistent_cache(
    path: Optional[str] = None,
    *,
    max_entries: int = 4096,
    max_bytes: int = 256 * 1024 * 1024,
    store: Optional[DiskStore] = None,
) -> DiskStore:
    """Create (or adopt) a DiskStore and install it as the sweep cache's
    persistent tier.  Returns the installed store."""
    global _active
    from repro.sweep import cache as sweep_cache

    if store is None:
        store = DiskStore(
            path if path is not None else default_store_path(),
            max_entries=max_entries,
            max_bytes=max_bytes,
        )
    _active = store
    sweep_cache.set_persistent_store(store)
    return store


def disable_persistent_cache() -> None:
    """Detach the persistent tier; the in-memory cache keeps working."""
    global _active
    from repro.sweep import cache as sweep_cache

    _active = None
    sweep_cache.set_persistent_store(None)


def maybe_enable_from_env() -> Optional[DiskStore]:
    """Install the default store iff ``REPRO_PERSISTENT_CACHE`` is truthy.

    Called by the CLI harness once per invocation, before any subcommand
    (``serve`` included).
    """
    flag = os.environ.get("REPRO_PERSISTENT_CACHE", "").strip().lower()
    if flag in {"", "0", "false", "no", "off"}:
        return None
    return configure_persistent_cache()


@contextlib.contextmanager
def persistent_cache_scope(
    path: Optional[str] = None,
    *,
    max_entries: int = 4096,
    max_bytes: int = 256 * 1024 * 1024,
    store: Optional[DiskStore] = None,
) -> Iterator[DiskStore]:
    """Install a store for the duration of a with-block, restoring the
    previous tier (usually none) on exit — the test idiom."""
    previous = _active
    installed = configure_persistent_cache(
        path, max_entries=max_entries, max_bytes=max_bytes, store=store
    )
    try:
        yield installed
    finally:
        if previous is None:
            disable_persistent_cache()
        else:
            configure_persistent_cache(store=previous)
