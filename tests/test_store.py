"""Crash-safety and recovery tests of the persistent disk store
(:mod:`repro.store`) and its integration with the sweep memo cache."""

from __future__ import annotations

import errno
import os
import pickle
import sys
import threading

import pytest

from repro.store import (
    DiskStore,
    configure_persistent_cache,
    default_store_tag,
    disable_persistent_cache,
    maybe_enable_from_env,
    persistent_cache_scope,
    summarize_store,
    wipe_store,
)
from repro.store.disk import (
    _ENTRIES_DIR,
    _SUFFIX,
    _TMP_PREFIX,
    _encode_entry,
    _key_digest,
)


@pytest.fixture
def store(tmp_path):
    return DiskStore(str(tmp_path / "store"), tag="test-tag")


class TestDiskStoreBasics:
    def test_round_trip(self, store):
        key = ("fingerprint", 64, 2.0)
        assert store.get(key) == (False, None)
        assert store.put(key, {"time": 12.5, "slots": [1, 2, 3]})
        hit, value = store.get(key)
        assert hit and value == {"time": 12.5, "slots": [1, 2, 3]}

    def test_stats_counters(self, store):
        store.get(("miss",))
        store.put(("k",), 1)
        store.get(("k",))
        st = store.stats()
        assert (st.hits, st.misses, st.writes) == (1, 1, 1)
        assert st.entries == 1 and st.bytes > 0
        assert 0 < st.hit_rate < 1

    def test_unpicklable_value_is_write_error(self, store):
        assert not store.put(("k",), lambda: None)  # lambdas don't pickle
        assert store.stats().write_errors == 1
        assert store.get(("k",)) == (False, None)

    def test_eviction_oldest_first(self, tmp_path):
        s = DiskStore(str(tmp_path / "s"), max_entries=3, tag="t")
        for i in range(5):
            s.put(("k", i), i)
            os.utime(s._entry_path(("k", i)), (i, i))  # force distinct mtimes
        s.put(("k", 5), 5)
        st = s.stats()
        assert st.entries == 3
        assert st.evictions >= 2
        # the newest keys survive
        assert s.contains(("k", 5))
        assert not s.contains(("k", 0))

    def test_clear_and_wipe(self, store, tmp_path):
        store.put(("a",), 1)
        assert store.clear() == 1
        assert store.stats().entries == 0
        store.put(("b",), 2)
        assert wipe_store(store.root) == 1
        # wipe refuses to touch a non-store directory with content
        other = tmp_path / "not-a-store"
        other.mkdir()
        (other / "precious.txt").write_text("data")
        with pytest.raises(OSError) as exc:
            wipe_store(str(other))
        assert exc.value.errno == errno.ENOTEMPTY


class TestWriteTally:
    """A write updates a running ``(entries, bytes)`` tally instead of
    rescanning the directory; a scan (plus LRU eviction) runs only when
    the tally crosses a bound or every ``RESCAN_EVERY`` writes.  Checked
    by counting directory-metadata calls, not by timing."""

    @pytest.fixture
    def fs_calls(self, monkeypatch):
        calls = {"stat": 0, "listdir": 0}
        real_stat, real_listdir = os.stat, os.listdir

        def stat(*args, **kwargs):
            calls["stat"] += 1
            return real_stat(*args, **kwargs)

        def listdir(*args, **kwargs):
            calls["listdir"] += 1
            return real_listdir(*args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(os, "listdir", listdir)
        return calls

    @staticmethod
    def _on_disk(store):
        return sorted(n for n in os.listdir(store.entries_dir) if n.endswith(_SUFFIX))

    def test_writes_within_bounds_never_scan(self, tmp_path, fs_calls):
        s = DiskStore(str(tmp_path / "s"), max_entries=1000, tag="t")
        fs_calls.update(stat=0, listdir=0)
        for i in range(DiskStore.RESCAN_EVERY - 1):
            assert s.put(("k", i), i)
        assert fs_calls == {"stat": 0, "listdir": 0}
        assert s.stats().entries == DiskStore.RESCAN_EVERY - 1

    def test_crossing_a_bound_scans_once_and_evicts_lru(self, tmp_path, fs_calls):
        s = DiskStore(str(tmp_path / "s"), max_entries=4, tag="t")
        for i in range(4):
            s.put(("k", i), i)
            os.utime(s._entry_path(("k", i)), (i, i))  # distinct mtimes
        fs_calls.update(stat=0, listdir=0)
        s.put(("k", 4), 4)  # the fifth entry crosses max_entries
        assert fs_calls == {"stat": 5, "listdir": 1}
        assert len(self._on_disk(s)) == 4
        assert not s.contains(("k", 0)) and s.contains(("k", 4))
        assert s.stats().evictions == 1

    def test_byte_bound_is_tallied(self, tmp_path):
        blob = "x" * 1000
        s = DiskStore(str(tmp_path / "s"), max_bytes=3500, tag="t")
        for i in range(10):
            s.put(("k", i), blob)
        st = s.stats()
        assert st.bytes <= 3500 and st.entries == 3 and st.evictions == 7

    def test_periodic_rescan(self, tmp_path, fs_calls):
        s = DiskStore(str(tmp_path / "s"), max_entries=1000, tag="t")
        s.RESCAN_EVERY = 10
        fs_calls.update(stat=0, listdir=0)
        for i in range(25):
            s.put(("k", i), i)
        assert fs_calls["listdir"] == 2  # after writes 10 and 20

    def test_corrupt_drop_and_clear_keep_the_tally(self, tmp_path, fs_calls):
        s = DiskStore(str(tmp_path / "s"), max_entries=2, tag="t")
        s.put(("a",), 1)
        s.put(("b",), 2)
        with open(s._entry_path(("a",)), "wb") as fh:
            fh.write(b"garbage")
        assert s.get(("a",)) == (False, None)  # dropped: one entry left
        fs_calls.update(stat=0, listdir=0)
        s.put(("c",), 3)  # two entries: within bounds, no scan
        assert fs_calls["listdir"] == 0
        s.clear()
        s.put(("d",), 4)
        s.put(("e",), 5)
        assert fs_calls["listdir"] == 1  # the one in clear()
        assert len(self._on_disk(s)) == 2

    def test_threads_sharing_a_handle_keep_the_bound(self, tmp_path):
        s = DiskStore(str(tmp_path / "s"), max_entries=16, tag="t")

        def writer(k):
            for i in range(40):
                s.put(("k", k, i), i)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        # 320 writes: the last periodic rescan was at write 256, so a lost
        # tally update would leave more than 16 entries behind
        assert len(self._on_disk(s)) == 16

    def test_two_writers_on_one_directory(self, tmp_path):
        """Each handle sees the other's writes at its next rescan, so the
        directory never holds more than ``max_entries + RESCAN_EVERY - 1``
        entries between writes, and every scan evicts back into bounds."""
        root = str(tmp_path / "s")
        a = DiskStore(root, max_entries=8, tag="t")
        b = DiskStore(root, max_entries=8, tag="t")
        a.RESCAN_EVERY = b.RESCAN_EVERY = 4
        for i in range(64):
            (a if i % 2 else b).put(("k", i), i)
            assert len(self._on_disk(a)) <= 8 + 4 - 1
        for i in range(4):  # a rescans within its next 4 writes
            a.put(("a", i), i)
        assert len(self._on_disk(a)) <= 8


class TestCrashRecovery:
    """The ISSUE's crash-recovery criteria: a kill mid-write leaves the
    store loadable with the partial entry simply absent; a hand-corrupted
    entry reads as a miss (and the recompute is bit-identical), never an
    exception."""

    def test_partial_write_is_invisible_and_swept(self, tmp_path):
        root = str(tmp_path / "s")
        s = DiskStore(root, tag="t")
        s.put(("survivor",), 42)
        # simulate a writer killed mid-write: a temp file exists, the
        # atomic rename never happened
        blob = _encode_entry(("victim",), 99)
        tmp_name = f"{_TMP_PREFIX}{_key_digest(('victim',))}{_SUFFIX}.12345"
        tmp_file = os.path.join(s.entries_dir, tmp_name)
        with open(tmp_file, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # half the bytes, then "killed"

        # a fresh open (daemon restart) must load cleanly, keep the
        # published entry, miss the victim, and sweep the orphan
        s2 = DiskStore(root, tag="t")
        assert s2.get(("survivor",)) == (True, 42)
        assert s2.get(("victim",)) == (False, None)
        assert not os.path.exists(tmp_file)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[: len(b) // 2],  # truncation
            lambda b: b.replace(b"REPRO-STORE", b"BOGUS-STORE", 1),  # bad magic
            lambda b: b[:-4] + bytes(4),  # flipped payload bytes
            lambda b: b"",  # empty file
        ],
        ids=["truncated", "bad-magic", "bit-flip", "empty"],
    )
    def test_corrupt_entry_is_miss_with_bit_identical_recompute(
        self, store, mutate
    ):
        key = ("fp", 16)
        value = {"report": [1.0, 2.0, 3.0], "time": 7.25}
        store.put(key, value)
        path = store._entry_path(key)
        original = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(mutate(original))

        hit, got = store.get(key)
        assert not hit and got is None
        assert store.stats().corrupt_dropped <= 1  # empty file may parse as ""
        assert not os.path.exists(path)  # dropped so the rewrite starts clean

        # the recompute path: writing the same value again yields a hit
        # with a bit-identical payload
        store.put(key, value)
        assert store.get(key) == (True, value)
        assert open(path, "rb").read() == original

    def test_digest_collision_degrades_to_miss(self, store):
        key = ("real", 1)
        store.put(key, "value")
        # forge a different key into the file slot the real key hashes to
        path = store._entry_path(key)
        with open(path, "wb") as fh:
            fh.write(_encode_entry(("impostor", 2), "other"))
        assert store.get(key) == (False, None)

    def test_io_fault_on_write_degrades_to_passthrough(self, tmp_path):
        def enospc(op, path):
            if op == "put":
                raise OSError(errno.ENOSPC, "disk full")

        s = DiskStore(str(tmp_path / "s"), tag="t", io_fault=enospc)
        assert not s.put(("k",), 1)
        st = s.stats()
        assert st.write_errors == 1 and st.entries == 0
        # no temp-file litter from the failed write
        assert not [
            n for n in os.listdir(s.entries_dir) if n.startswith(_TMP_PREFIX)
        ]


class TestInvalidation:
    def test_tag_mismatch_wipes_on_open(self, tmp_path):
        root = str(tmp_path / "s")
        s1 = DiskStore(root, tag="v1+abc")
        s1.put(("k",), 1)
        s2 = DiskStore(root, tag="v1+def")  # a different tree
        assert s2.get(("k",)) == (False, None)
        assert s2.stats().invalidated == 1

    def test_same_tag_preserves_entries(self, tmp_path):
        root = str(tmp_path / "s")
        DiskStore(root, tag="same").put(("k",), "v")
        assert DiskStore(root, tag="same").get(("k",)) == (True, "v")

    def test_default_tag_carries_schema_and_sha(self):
        tag = default_store_tag()
        assert tag.startswith("v1+")

    def test_default_tag_follows_the_package_not_the_cwd(self, tmp_path, monkeypatch):
        """A daemon started outside its checkout still tags its store with
        that checkout's SHA, so a code change invalidates cached answers."""
        import shutil
        import subprocess

        import repro

        if shutil.which("git") is None:
            pytest.skip("git is unavailable")
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root,
            capture_output=True, text=True,
        )
        if head.returncode != 0:
            pytest.skip("the repro package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert default_store_tag() == f"v1+{head.stdout.strip()}"

    def test_summarize_does_not_invalidate(self, tmp_path):
        root = str(tmp_path / "s")
        DiskStore(root, tag="old").put(("k",), 1)
        info = summarize_store(root)
        assert info["tag"] == "old" and info["entries"] == 1
        # summarizing under a different current tag must not wipe
        assert DiskStore(root, tag="old").get(("k",)) == (True, 1)


class TestPersistentCacheTier:
    """The two-tier memo cache: disk hits repopulate memory and are
    bit-identical to the in-memory value."""

    def test_offline_schedule_survives_memory_clear(self, tmp_path):
        from repro.sweep.cache import (
            cache_stats,
            cached_offline_schedule,
            clear_cache,
        )
        from repro.workloads import uniform_random_relation

        rel = uniform_random_relation(8, 200, seed=3)
        store = DiskStore(str(tmp_path / "s"), tag="t")
        with persistent_cache_scope(store=store):
            clear_cache()
            first = cached_offline_schedule(rel, 4)
            clear_cache()  # drop the in-memory tier only
            again = cached_offline_schedule(rel, 4)
            stats = cache_stats()
        assert stats.disk_hits == 1
        assert (first.flit_slots == again.flit_slots).all()
        assert first.algorithm == again.algorithm

    def test_scope_restores_previous_tier(self, tmp_path):
        from repro.sweep.cache import persistent_store

        before = persistent_store()
        with persistent_cache_scope(str(tmp_path / "s")):
            assert persistent_store() is not None
        assert persistent_store() is before

    def test_env_gate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_CACHE", "0")
        assert maybe_enable_from_env() is None
        monkeypatch.setenv("REPRO_PERSISTENT_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        try:
            store = maybe_enable_from_env()
            assert store is not None
            assert str(tmp_path / "envstore") in store.root
        finally:
            disable_persistent_cache()

    def test_configure_and_disable(self, tmp_path):
        try:
            store = configure_persistent_cache(str(tmp_path / "s"))
            assert store.put(("smoke",), 1)
        finally:
            disable_persistent_cache()
