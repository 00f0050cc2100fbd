"""Tests for columnsort (Table 1 row 5), reference and engine program."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BSPg, BSPm, MachineParams, QSMm
from repro.algorithms import choose_columns, columnsort, columnsort_reference
from repro.algorithms.sorting import local_sort_work
from repro.core.engine import DenseSharedMemory
from repro.util.intmath import ceil_div
from tests.barrier_columns import barrier_columns


class TestChooseColumns:
    def test_leighton_conditions(self):
        for n in (64, 512, 4096, 100_000):
            for limit in (2, 8, 64):
                r, s = choose_columns(n, limit)
                assert r * s >= n
                assert s <= max(1, limit)
                if s > 1:
                    assert r % s == 0
                    assert r >= 2 * (s - 1) ** 2

    def test_tiny_n(self):
        r, s = choose_columns(3, 8)
        assert s >= 1 and r * s >= 3

    def test_no_limit(self):
        r, s = choose_columns(10_000, None)
        assert s > 1


class TestReference:
    @pytest.mark.parametrize("n,s", [(128, 4), (512, 4), (2048, 8)])
    def test_sorts(self, n, s):
        rng = np.random.default_rng(n)
        keys = rng.random(n)
        r = s * ceil_div(n, s * s)
        out = columnsort_reference(keys, r, s)
        assert np.array_equal(out, np.sort(keys))

    def test_with_padding(self):
        rng = np.random.default_rng(0)
        keys = rng.random(100)  # r*s = 128 > 100
        out = columnsort_reference(keys, 32, 4)
        assert np.array_equal(out, np.sort(keys))

    def test_duplicates(self):
        keys = np.array([3.0, 1.0, 3.0, 1.0] * 32)
        out = columnsort_reference(keys, 32, 4)
        assert np.array_equal(out, np.sort(keys))

    def test_condition_violations_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            columnsort_reference(np.ones(100), 4, 4)
        with pytest.raises(ValueError, match="s \\| r"):
            columnsort_reference(np.ones(30), 10, 3)
        with pytest.raises(ValueError, match="2\\(s-1\\)"):
            columnsort_reference(np.ones(64), 16, 4)  # 16 < 2*9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_random_keys(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=512)
        out = columnsort_reference(keys, 128, 4)
        assert np.array_equal(out, np.sort(keys))


class TestEngineColumnsort:
    @pytest.mark.parametrize("n", [64, 500, 1024])
    def test_sorts_on_bspm(self, n):
        rng = np.random.default_rng(n)
        keys = rng.random(n)
        mach = BSPm(MachineParams(p=64, m=8, L=2))
        res, out = columnsort(mach, keys)
        assert np.array_equal(out, np.sort(keys))

    def test_sorts_on_bspg(self):
        rng = np.random.default_rng(1)
        keys = rng.random(512)
        mach = BSPg(MachineParams(p=64, g=8.0, L=2))
        res, out = columnsort(mach, keys)
        assert np.array_equal(out, np.sort(keys))

    def test_no_overload_on_bspm(self):
        rng = np.random.default_rng(2)
        keys = rng.random(1024)
        mach = BSPm(MachineParams(p=64, m=8, L=2))
        res, out = columnsort(mach, keys)
        assert res.stat_max("overloaded_slots") == 0

    def test_degenerate_single_column(self):
        keys = np.array([3.0, 1.0, 2.0])
        mach = BSPm(MachineParams(p=4, m=1, L=1))
        res, out = columnsort(mach, keys, columns=1)
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_m_model_comm_beats_g_model(self):
        """The Θ(g) separation on the communication term."""
        n, p, m = 2048, 128, 8
        g = p / m
        rng = np.random.default_rng(3)
        keys = rng.random(n)
        local, global_ = MachineParams.matched_pair(p=p, m=m, L=2)
        res_g, _ = columnsort(BSPg(local), keys)
        res_m, _ = columnsort(BSPm(global_), keys)
        comm_g = sum(r.breakdown.local_band for r in res_g.records)
        comm_m = sum(
            max(r.breakdown.local_band, r.breakdown.global_band) for r in res_m.records
        )
        assert comm_g / comm_m >= 0.5 * g

    def test_rejects_infinite_keys(self):
        mach = BSPm(MachineParams(p=8, m=2))
        with pytest.raises(ValueError, match="finite"):
            columnsort(mach, np.array([1.0, np.inf]))

    def test_qsm_machines_supported(self):
        from repro import QSMm

        mach = QSMm(MachineParams(p=16, m=4))
        rng = np.random.default_rng(4)
        keys = rng.random(64)
        res, out = columnsort(mach, keys)
        assert np.array_equal(out, np.sort(keys))

    def test_qsm_memory_holding_cells_is_kept(self):
        """On a machine whose memory already holds cells, the sort's cells
        start past the highest integer address: it sorts at the time a
        fresh machine takes, and the existing cells survive."""
        cells = {0: "zero", 7: 7.5, "note": "kept", ("x", 1): 2}
        mach = QSMm(MachineParams(p=16, m=4))
        mach.shared_memory.update(cells)
        keys = np.random.default_rng(5).random(200)
        res, out = columnsort(mach, keys)
        assert np.array_equal(out, np.sort(keys))
        assert {k: mach.shared_memory[k] for k in cells} == cells
        assert res.time == columnsort(QSMm(MachineParams(p=16, m=4)), keys)[0].time

    def test_qsm_second_sort_reads_none_of_the_first(self):
        """A second sort of another size on the same machine leaves the
        first sort's cells behind it: no cell the second sort leaves
        unwritten (the shift step's pads) reads back a stale key."""
        mach = QSMm(MachineParams(p=16, m=4))
        rng = np.random.default_rng(5)
        for n in (200, 333, 100):
            keys = rng.random(n)
            res, out = columnsort(mach, keys)
            assert np.array_equal(out, np.sort(keys))
            assert res.time == columnsort(QSMm(MachineParams(p=16, m=4)), keys)[0].time

    def test_qsm_cells_are_dense_int64(self):
        """An empty QSM memory is backed by a dense array over exactly the
        sort's cell space, and every phase addresses it with int64 arrays."""
        n, mach = 500, QSMm(MachineParams(p=32, m=8))
        with barrier_columns() as columns:
            res, out = columnsort(mach, np.random.default_rng(6).random(n))
        r, s = choose_columns(n, 7)
        assert isinstance(mach.shared_memory, DenseSharedMemory)
        assert mach.shared_memory.size == 5 * r * (s + 1) + n
        phases = [b for rec in columns.of(res) for b in (rec.read_batch, rec.write_batch) if b.n]
        assert len(phases) == 12
        for batch in phases:
            assert isinstance(batch.addr, np.ndarray) and batch.addr.dtype == np.int64

    def test_qsm_columnsort_memory_budget(self):
        """QSM(m) columnsort of 4096 keys at p = 256 (the table1-programs
        cell): records release their columns at each barrier, the cells
        are int64 addresses and only the s + 1 column owners hold a
        buffer, so the traced peak stays under 4 MB (10.6 MB with
        tuple-keyed cells and retained records)."""
        keys = np.random.default_rng(1).random(4096)
        machine = QSMm(MachineParams.matched_pair(p=256, m=16, L=8)[1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res, out = columnsort(machine, keys)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert np.array_equal(out, np.sort(keys))
        assert res.time == 13309.584680290562

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(10, 400))
    def test_property_engine_sorts(self, seed, n):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 50, size=n).astype(float)  # many duplicates
        mach = BSPm(MachineParams(p=32, m=4, L=1))
        res, out = columnsort(mach, keys)
        assert np.array_equal(out, np.sort(keys))


class TestLocalSortWork:
    def test_zero(self):
        assert local_sort_work(0) == 0.0

    def test_small(self):
        assert local_sort_work(1) == 1.0

    def test_nlogn(self):
        assert local_sort_work(1024) == pytest.approx(1024 * 10)
