"""Tests for the scheduler↔engine bridge (route / execute_schedule)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BSPg, BSPm, MachineParams, QSMm
from repro.core.costs import EXPONENTIAL, LINEAR, PolynomialPenalty
from repro.scheduling import (
    delivery_counts,
    evaluate_schedule,
    execute_schedule,
    grouped_schedule,
    naive_schedule,
    offline_optimal_schedule,
    route,
    unbalanced_consecutive_send,
    unbalanced_granular_send,
    unbalanced_send,
)
from repro.workloads import build_relation, uniform_random_relation, zipf_h_relation

#: the Section 6 senders, as ``(rel, m, epsilon, seed) -> Schedule``
_SENDERS = {
    "unbalanced_send": lambda rel, m, eps, seed: unbalanced_send(rel, m, eps, seed=seed),
    "consecutive": lambda rel, m, eps, seed: unbalanced_consecutive_send(
        rel, m, eps, seed=seed),
    "granular": lambda rel, m, eps, seed: unbalanced_granular_send(rel, m, seed=seed),
    "grouped": lambda rel, m, eps, seed: grouped_schedule(rel, m),
    "naive": lambda rel, m, eps, seed: naive_schedule(rel),
    "offline_optimal": lambda rel, m, eps, seed: offline_optimal_schedule(rel, m),
}


class TestExecuteSchedule:
    def test_delivery_complete(self):
        rel = uniform_random_relation(32, 500, seed=0)
        sched = unbalanced_send(rel, m=8, epsilon=0.2, seed=1)
        mach = BSPm(MachineParams(p=32, m=8, L=1))
        res = execute_schedule(mach, sched)
        counts = delivery_counts(res, 32)
        assert np.array_equal(counts, rel.recv_sizes)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.integers(1, 40),
        n=st.integers(0, 600),
        m=st.integers(1, 64),
        epsilon=st.floats(0.05, 0.5),
        L=st.floats(0.5, 64.0),
        shape=st.sampled_from(["uniform", "zipf", "balanced", "one_to_all"]),
        sender=st.sampled_from(sorted(_SENDERS)),
        penalty=st.sampled_from([EXPONENTIAL, LINEAR, PolynomialPenalty(2.0)]),
        seed=st.integers(0, 10_000),
    )
    def test_engine_cost_matches_evaluator(
        self, p, n, m, epsilon, L, shape, sender, penalty, seed
    ):
        """Replay, the live loop and the vectorized evaluator price the same
        schedule identically — the library's central consistency invariant,
        over drawn relations, senders and penalty families."""
        rel = build_relation(shape, p, n, 1.2, seed)
        sched = _SENDERS[sender](rel, m, epsilon, seed)

        def machine():
            return BSPm(MachineParams(p=p, m=m, L=L), penalty=penalty)

        replayed = execute_schedule(machine(), sched)
        live = execute_schedule(machine(), sched, audit=True)
        assert replayed.time == live.time
        (got,), (want,) = replayed.records, live.records
        assert (got.cost, got.breakdown) == (want.cost, want.breakdown)
        assert list(got.stats.items()) == list(want.stats.items())
        rep = evaluate_schedule(sched, m=m, L=L, penalty=penalty)
        assert replayed.time == pytest.approx(rep.superstep_cost, rel=1e-12)

    def test_offline_schedule_executes(self):
        rel = zipf_h_relation(32, 3000, alpha=1.3, seed=6)
        sched = offline_optimal_schedule(rel, m=8)
        mach = BSPm(MachineParams(p=32, m=8, L=1))
        res = execute_schedule(mach, sched)
        assert res.stat_max("overloaded_slots") == 0

    def test_rejects_qsm(self):
        rel = uniform_random_relation(8, 10, seed=7)
        sched = unbalanced_send(rel, m=4, epsilon=0.2, seed=8)
        with pytest.raises(ValueError, match="BSP"):
            execute_schedule(QSMm(MachineParams(p=8, m=4)), sched)

    def test_rejects_too_small_machine(self):
        rel = uniform_random_relation(16, 10, seed=9)
        sched = unbalanced_send(rel, m=4, epsilon=0.2, seed=10)
        with pytest.raises(ValueError, match="processors"):
            execute_schedule(BSPm(MachineParams(p=8, m=4)), sched)


class TestRoute:
    def test_route_on_global_machine(self):
        rel = zipf_h_relation(64, 5000, alpha=1.3, seed=11)
        mach = BSPm(MachineParams(p=64, m=16, L=2))
        res, sched = route(mach, rel, seed=12)
        assert sched.algorithm == "unbalanced-send"
        assert res.total_flits == rel.n

    def test_route_on_local_machine(self):
        rel = zipf_h_relation(64, 5000, alpha=1.3, seed=13)
        mach = BSPg(MachineParams(p=64, g=4.0, L=2))
        res, sched = route(mach, rel)
        assert sched.algorithm == "naive"  # no scheduling needed locally
        # Proposition 6.1: cost = max(g*h, L)
        assert res.time == max(4.0 * rel.h, 2.0)

    def test_route_custom_scheduler(self):
        rel = uniform_random_relation(32, 1000, seed=14)
        mach = BSPm(MachineParams(p=32, m=8, L=1))
        res, sched = route(mach, rel, scheduler=unbalanced_consecutive_send, seed=15)
        assert sched.algorithm == "unbalanced-consecutive-send"

    def test_route_separation_end_to_end(self):
        """The headline Θ(g) claim holds for fully engine-executed runs."""
        p, m = 128, 16
        g = p / m
        rel = zipf_h_relation(p, 10_000, alpha=1.4, seed=16)
        local, global_ = MachineParams.matched_pair(p=p, m=m, L=2)
        t_local = route(BSPg(local), rel)[0].time
        t_global = route(BSPm(global_), rel, seed=17)[0].time
        assert t_local / t_global >= 0.8 * g


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 24),
    n=st.integers(0, 300),
    m=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
def test_property_execute_always_delivers(p, n, m, seed):
    rel = uniform_random_relation(p, n, seed=seed)
    sched = unbalanced_send(rel, m=m, epsilon=0.25, seed=seed)
    mach = BSPm(MachineParams(p=p, m=m, L=1))
    res = execute_schedule(mach, sched)
    assert int(delivery_counts(res, p).sum()) == rel.n
