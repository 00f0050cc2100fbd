"""Tests for broadcasting on all four models + the non-receipt algorithm."""

import math

import pytest

from repro import BSPg, BSPm, MachineParams, QSMg, QSMm
from repro.algorithms import broadcast, broadcast_bit_nonreceipt, default_branching
from repro.theory.bounds import (
    broadcast_bsp_g,
    broadcast_bsp_g_lower,
    broadcast_bsp_m,
    broadcast_nonreceipt_upper,
    broadcast_qsm_g,
    broadcast_qsm_m,
)


class TestCorrectness:
    def test_all_models(self, all_machines):
        for name, mach in all_machines.items():
            mach.shared_memory.clear()
            res = broadcast(mach, value="payload")
            assert all(v == "payload" for v in res.results), name

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 17, 100])
    def test_odd_sizes_bsp(self, p):
        mach = BSPm(MachineParams(p=p, m=max(1, p // 4), L=2))
        res = broadcast(mach, value=7)
        assert res.results == [7] * p

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 17, 100])
    def test_odd_sizes_qsm(self, p):
        mach = QSMm(MachineParams(p=p, m=max(1, p // 4)))
        res = broadcast(mach, value=7)
        assert res.results == [7] * p

    def test_custom_branching(self):
        mach = BSPg(MachineParams(p=64, g=2.0, L=8))
        res = broadcast(mach, value=1, branching=4)
        assert res.results == [1] * 64


class TestCosts:
    def test_bsp_m_beats_bsp_g(self, matched_medium):
        local, global_ = matched_medium
        t_local = broadcast(BSPg(local), 1).time
        t_global = broadcast(BSPm(global_), 1).time
        assert t_global < t_local

    def test_qsm_m_beats_qsm_g(self, matched_medium):
        local, global_ = matched_medium
        t_local = broadcast(QSMg(local), 1).time
        t_global = broadcast(QSMm(global_), 1).time
        assert t_global < t_local

    def test_measured_within_constant_of_bound(self, matched_medium):
        local, global_ = matched_medium
        p, m, L, g = local.p, global_.m, local.L, local.g
        cases = [
            (BSPg(local), broadcast_bsp_g(p, g, L)),
            (BSPm(global_), broadcast_bsp_m(p, m, L)),
            (QSMg(local), broadcast_qsm_g(p, g)),
            (QSMm(global_), broadcast_qsm_m(p, m)),
        ]
        for mach, bound in cases:
            t = broadcast(mach, 1).time
            assert t <= 6 * bound + 1, type(mach).__name__
            assert t >= 0.2 * bound, type(mach).__name__

    def test_no_overload_on_m_machines(self, matched_medium):
        _, global_ = matched_medium
        res = broadcast(BSPm(global_), 1)
        assert res.stat_max("overloaded_slots") == 0

    def test_default_branching_values(self, matched_medium):
        local, global_ = matched_medium
        assert default_branching(BSPg(local)) == max(2, int(local.L / local.g) + 1)
        assert default_branching(BSPm(global_)) == max(2, int(global_.L))
        assert default_branching(QSMg(local)) == max(2, int(local.g) + 1)
        assert default_branching(QSMm(global_)) == 2


class TestNonReceipt:
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("p", [2, 3, 9, 26, 27, 28, 100])
    def test_correct(self, bit, p):
        mach = BSPg(MachineParams(p=p, g=4.0, L=1.0))
        res = broadcast_bit_nonreceipt(mach, bit)
        assert res.results == [bit] * p

    def test_superstep_count_log3(self):
        p = 81
        mach = BSPg(MachineParams(p=p, g=4.0, L=1.0))
        res = broadcast_bit_nonreceipt(mach, 1)
        assert res.supersteps == math.ceil(math.log(p, 3))

    def test_time_matches_upper_bound(self):
        """g*ceil(log3 p) when L <= g — the Section 4.2 claim."""
        p, g = 243, 8.0
        mach = BSPg(MachineParams(p=p, g=g, L=1.0))
        res = broadcast_bit_nonreceipt(mach, 0)
        assert res.time == broadcast_nonreceipt_upper(p, g)

    def test_beats_theorem_4_1_naive_reading(self):
        """The non-receipt algorithm with L = g = 8 runs in g·log3(p),
        while a receipt-only tree would need ~log2-based rounds — the
        lower bound of Theorem 4.1 is still respected."""
        p, g, L = 729, 8.0, 8.0
        mach = BSPg(MachineParams(p=p, g=g, L=L))
        t = broadcast_bit_nonreceipt(mach, 1).time
        assert t >= broadcast_bsp_g_lower(p, g, L)

    def test_rejects_bad_bit(self):
        mach = BSPg(MachineParams(p=4, g=2.0))
        with pytest.raises(ValueError):
            broadcast_bit_nonreceipt(mach, 2)

    def test_rejects_qsm(self):
        mach = QSMg(MachineParams(p=4, g=2.0))
        with pytest.raises(ValueError, match="message-passing"):
            broadcast_bit_nonreceipt(mach, 0)


class TestTheorem41:
    def test_lower_bound_below_tree_upper(self):
        """Theorem 4.1 gates at its exact constant: the proven lower bound
        never exceeds the tree algorithm's measured time, over 80
        ``(p, g, L)`` points with ``g <= L``."""
        for p in (4, 16, 64, 256, 1024):
            for L in (1.0, 2.0, 4.0, 16.0, 64.0):
                for g in (1.0, 2.0, 4.0, 8.0, 16.0):
                    if g > L:
                        continue
                    mach = BSPg(MachineParams(p=p, g=g, L=L))
                    t = broadcast(mach, 1).time
                    assert t >= broadcast_bsp_g_lower(p, g, L), (p, L, g)
