"""Tests for list ranking (Table 1 row 4): Wyllie, contraction, oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import BSPg, BSPm, MachineParams, QSMm
from repro.algorithms import (
    list_ranking_contraction,
    list_ranking_wyllie,
    random_list,
    sequential_ranks,
)


class TestOracle:
    def test_simple_chain(self):
        # 0 -> 1 -> 2 -> nil
        ranks = sequential_ranks([1, 2, -1])
        assert ranks.tolist() == [2, 1, 0]

    def test_reversed_chain(self):
        ranks = sequential_ranks([-1, 0, 1])
        assert ranks.tolist() == [0, 1, 2]

    def test_single(self):
        assert sequential_ranks([-1]).tolist() == [0]

    def test_empty(self):
        assert sequential_ranks([]).size == 0

    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            sequential_ranks([1, 0])

    def test_forest_detected(self):
        with pytest.raises(ValueError):
            sequential_ranks([-1, -1])

    def test_random_list_is_single_list(self):
        succ = random_list(50, seed=0)
        ranks = sequential_ranks(succ)
        assert sorted(ranks.tolist()) == list(range(50))


class TestWyllie:
    @pytest.mark.parametrize("p", [1, 2, 3, 16, 63, 64])
    def test_correct_on_bsp(self, p):
        succ = random_list(p, seed=p)
        oracle = sequential_ranks(succ)
        mach = BSPm(MachineParams(p=p, m=max(1, p // 4), L=2))
        res, ranks = list_ranking_wyllie(mach, succ)
        assert np.array_equal(ranks, oracle)

    def test_correct_on_all_models(self, all_machines):
        p = 64
        succ = random_list(p, seed=9)
        oracle = sequential_ranks(succ)
        for name, mach in all_machines.items():
            mach.shared_memory.clear()
            res, ranks = list_ranking_wyllie(mach, succ)
            assert np.array_equal(ranks, oracle), name

    def test_requires_one_node_per_proc(self):
        mach = BSPm(MachineParams(p=8, m=2))
        with pytest.raises(ValueError):
            list_ranking_wyllie(mach, random_list(4, seed=1))

    def test_ordered_chain(self):
        p = 32
        succ = np.arange(1, p + 1)
        succ[-1] = -1
        mach = BSPg(MachineParams(p=p, g=2.0, L=1))
        res, ranks = list_ranking_wyllie(mach, succ)
        assert ranks.tolist() == list(range(p - 1, -1, -1))


class TestContraction:
    @pytest.mark.parametrize("p", [1, 2, 3, 16, 63, 128])
    def test_correct(self, p):
        succ = random_list(p, seed=p + 100)
        oracle = sequential_ranks(succ)
        mach = BSPm(MachineParams(p=p, m=max(1, p // 4), L=2))
        res, ranks = list_ranking_contraction(mach, succ, seed=5)
        assert np.array_equal(ranks, oracle)

    def test_correct_on_bspg(self):
        p = 64
        succ = random_list(p, seed=3)
        mach = BSPg(MachineParams(p=p, g=4.0, L=2))
        res, ranks = list_ranking_contraction(mach, succ, seed=6)
        assert np.array_equal(ranks, sequential_ranks(succ))

    def test_deterministic_under_seed(self):
        p = 32
        succ = random_list(p, seed=4)
        mach = BSPm(MachineParams(p=p, m=8, L=1))
        _, a = list_ranking_contraction(mach, succ, seed=7)
        _, b = list_ranking_contraction(BSPm(MachineParams(p=p, m=8, L=1)), succ, seed=7)
        assert np.array_equal(a, b)

    def test_rejects_qsm(self):
        mach = QSMm(MachineParams(p=8, m=2))
        with pytest.raises(ValueError):
            list_ranking_contraction(mach, random_list(8, seed=1))

    def test_insufficient_rounds_detected(self):
        p = 64
        succ = random_list(p, seed=8)
        mach = BSPm(MachineParams(p=p, m=8, L=1))
        with pytest.raises(RuntimeError):
            list_ranking_contraction(mach, succ, seed=9, max_rounds=1)

    def test_stalled_run_is_retried_and_charged(self):
        """``random_list(15, seed=15)`` on BSP(m=5) with seed 15 leaves one
        node unspliced after the default 32 rounds; the second attempt
        finishes, and the result is charged for both attempts."""
        from repro.obs.ledger import ledger_scope

        succ = random_list(15, seed=15)
        with ledger_scope():
            res, ranks = list_ranking_contraction(
                BSPm(MachineParams(p=15, m=5, L=1)), succ, seed=15
            )
        assert np.array_equal(ranks, sequential_ranks(succ))
        once, _ = list_ranking_contraction(
            BSPm(MachineParams(p=15, m=5, L=1)), succ, seed=16
        )
        assert res.supersteps == 2 * once.supersteps  # fixed-length attempts
        # the ledger rows of both attempts ride along and sum to model time
        assert len(res.ledger) == res.supersteps
        assert res.ledger.total_charge() == res.time

    def test_memory_budget(self):
        """4096 nodes on BSP(m) at p = 256 (the table1-programs cell):
        records release their columns at each barrier, so the traced
        peak stays under 4 MB (5.7 MB when every superstep's messages
        stayed on the result)."""
        import tracemalloc

        succ = random_list(4096, seed=3)
        machine = BSPm(MachineParams.matched_pair(p=256, m=16, L=8)[1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res, ranks = list_ranking_contraction(machine, succ, seed=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert np.array_equal(ranks, sequential_ranks(succ))

    def test_message_volume_is_linear(self):
        """Work-efficiency: total flits O(n), unlike Wyllie's Θ(n lg n)."""
        p = 128
        succ = random_list(p, seed=10)
        mach = BSPm(MachineParams(p=p, m=16, L=1))
        res, _ = list_ranking_contraction(mach, succ, seed=11)
        mach2 = BSPm(MachineParams(p=p, m=16, L=1))
        res_w, _ = list_ranking_wyllie(mach2, succ)
        assert res.total_flits < res_w.total_flits
        assert res.total_flits <= 8 * p  # c·n for a small constant


@settings(max_examples=15, deadline=None)
@given(p=st.integers(2, 48), seed=st.integers(0, 10_000))
@example(p=15, seed=15)  # the first attempt stalls: exercises the retry
def test_both_algorithms_agree(p, seed):
    succ = random_list(p, seed=seed)
    oracle = sequential_ranks(succ)
    mach = BSPm(MachineParams(p=p, m=max(1, p // 3), L=1))
    _, wyllie = list_ranking_wyllie(mach, succ)
    mach2 = BSPm(MachineParams(p=p, m=max(1, p // 3), L=1))
    _, contr = list_ranking_contraction(mach2, succ, seed=seed)
    assert np.array_equal(wyllie, oracle)
    assert np.array_equal(contr, oracle)
