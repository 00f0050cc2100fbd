"""Tests for the LOGP model (the paper's third locally-limited reference)."""

import pytest

from repro import LogP, MachineParams, ModelViolation
from repro.models.logp import LogP as LogPDirect


def make(p=8, g=2.0, o=1.5, L=8.0):
    return LogP(MachineParams(p=p, g=g, o=o, L=L))


class TestPricing:
    def test_single_message(self):
        mach = make()

        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "x")
            yield

        res = mach.run(prog)
        # (1-1)*max(g,o) + 2o + L = 3 + 8 = 11
        assert res.time == 11.0

    def test_k_messages_gap_dominated(self):
        mach = make(g=3.0, o=1.0)

        def prog(ctx):
            if ctx.pid == 0:
                for d in range(1, 5):
                    ctx.send(d, "x")
            yield

        res = mach.run(prog)
        # 4 sends: (4-1)*3 + 2*1 + 8 = 19
        assert res.time == 19.0

    def test_overhead_dominated(self):
        mach = make(g=1.0, o=4.0)

        def prog(ctx):
            if ctx.pid == 0:
                for d in range(1, 4):
                    ctx.send(d, "x")
            yield

        res = mach.run(prog)
        # (3-1)*4 + 8 + 8 = 24
        assert res.time == 24.0

    def test_sends_plus_receives_charged(self):
        mach = make(g=2.0, o=1.0, L=4.0)

        def prog(ctx):
            # ring: everyone sends one, receives one: s+r = 2
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x")
            yield

        res = mach.run(prog)
        assert res.time == (2 - 1) * 2.0 + 2 * 1.0 + 4.0

    def test_work_only_superstep(self):
        mach = make()

        def prog(ctx):
            ctx.work(42.0)
            yield

        assert mach.run(prog).time == 42.0

    def test_zero_comm_zero_latency(self):
        mach = make()

        def prog(ctx):
            yield

        assert mach.run(prog).time == 0.0


class TestCapacity:
    def test_capacity_value(self):
        assert make(g=2.0, L=8.0).capacity == 4

    def test_violation_on_hot_destination(self):
        mach = make(p=16, g=2.0, L=4.0)  # capacity 2
        assert mach.capacity == 2

        def prog(ctx):
            if ctx.pid != 0:
                ctx.send(0, "x", slot=0)
            yield

        with pytest.raises(ModelViolation, match="capacity"):
            mach.run(prog)

    def test_staggered_injection_respects_capacity(self):
        mach = make(p=16, g=2.0, L=4.0)

        def prog(ctx):
            if ctx.pid != 0:
                ctx.send(0, "x", slot=ctx.pid)  # one per slot
            yield

        res = mach.run(prog)  # no violation
        assert res.records[0].stats["h"] == 15.0

    def test_scalar_sends_accumulate_to_violation(self):
        # each sender issues a single scalar ctx.send; the violation only
        # exists in aggregate, at the shared destination slot
        mach = make(p=8, g=2.0, L=4.0)  # capacity 2
        def prog(ctx):
            if ctx.pid in (1, 2, 3):
                ctx.send(0, ctx.pid, slot=0)
            yield
        with pytest.raises(ModelViolation, match=r"3 messages.*processor 0.*slot 0"):
            mach.run(prog)

    def test_scalar_send_at_capacity_boundary_passes(self):
        # exactly cap messages to one (dest, slot) is legal; cap+1 is not
        mach = make(p=8, g=2.0, L=4.0)  # capacity 2
        def prog(ctx):
            if ctx.pid in (1, 2):
                ctx.send(0, ctx.pid, slot=0)
            yield
        res = mach.run(prog)
        assert res.records[0].stats["h"] == 2.0

    def test_scalar_oversized_message_violates_alone(self):
        # one scalar send with size > cap busts the per-slot capacity by itself
        mach = make(p=8, g=2.0, L=4.0)  # capacity 2
        def prog(ctx):
            if ctx.pid == 1:
                ctx.send(0, "big", size=3, slot=0)
            yield
        with pytest.raises(ModelViolation, match="capacity"):
            mach.run(prog)

    def test_one_to_all_cost_matches_logp_formula(self):
        """The paper's opening example priced on LOGP: the root's p-1 sends
        cost (p-2)·max(g,o) + 2o + L — the same Θ(g·p) as BSP(g)."""
        p, g, o, L = 32, 2.0, 1.0, 8.0
        mach = make(p=p, g=g, o=o, L=L)

        def prog(ctx):
            if ctx.pid == 0:
                for d in range(1, ctx.nprocs):
                    ctx.send(d, d, slot=d - 1)
            yield

        res = mach.run(prog)
        assert res.time == (p - 2) * max(g, o) + 2 * o + L

    def test_export(self):
        assert LogP is LogPDirect


class TestAlgorithmsOnLogP:
    """The generic BSP-style algorithms run unchanged on LOGP (it is a
    message-passing machine); costs follow the LOGP formula."""

    def test_broadcast(self):
        from repro.algorithms import broadcast

        mach = make(p=64, g=2.0, o=1.0, L=8.0)
        res = broadcast(mach, value=9)
        assert res.results == [9] * 64

    def test_one_to_all_respects_capacity(self):
        from repro.algorithms import one_to_all

        mach = make(p=32, g=2.0, o=1.0, L=8.0)
        res = one_to_all(mach)  # root sends one per slot: capacity safe
        assert res.results == list(range(32))

    def test_summation(self):
        from repro.algorithms import summation

        mach = make(p=32, g=2.0, o=1.0, L=4.0)
        res, total = summation(mach, [1.0] * 32)
        assert total == 32.0


class TestAlgorithmsOnTwoLevel:
    def test_broadcast(self):
        from repro import TwoLevelBSP
        from repro.algorithms import broadcast

        mach = TwoLevelBSP(MachineParams(p=64, L=4.0), g1=2.0, g2=1.0)
        res = broadcast(mach, value=5)
        assert res.results == [5] * 64
