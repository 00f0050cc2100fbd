"""Pricing tests for all five machine models, pinned against hand-computed
superstep charges from the Section 2 formulas."""

import typing

import numpy as np
import pytest

import repro.models
from repro import (
    BSPg,
    BSPm,
    LINEAR,
    MachineParams,
    ModelViolation,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
)
from repro.core.events import CostBreakdown
from repro.models.pram import PRAM, ConcurrencyRule
from repro.models.pram_m import PRAMm


def one_to_all_prog(ctx):
    if ctx.pid == 0:
        for d in range(1, ctx.nprocs):
            ctx.send(d, d, slot=d - 1)
    yield


class TestBSPg:
    def test_superstep_cost_g_h(self):
        mach = BSPg(MachineParams(p=8, g=4.0, L=1.0))
        res = mach.run(one_to_all_prog)
        # h = 7, cost = max(0, 4*7, 1) = 28
        assert res.time == 28.0

    def test_latency_floor(self):
        mach = BSPg(MachineParams(p=4, g=2.0, L=50.0))
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "x")
            yield
        assert mach.run(prog).time == 50.0

    def test_work_dominates(self):
        mach = BSPg(MachineParams(p=4, g=2.0, L=1.0))
        def prog(ctx):
            ctx.work(100 if ctx.pid == 2 else 1)
            yield
        assert mach.run(prog).time == 100.0

    def test_receive_side_counts_in_h(self):
        mach = BSPg(MachineParams(p=4, g=3.0, L=1.0))
        def prog(ctx):
            if ctx.pid != 0:
                ctx.send(0, "x")  # all-to-one: r_0 = 3
            yield
        assert mach.run(prog).time == 9.0


class TestBSPm:
    def test_one_to_all_costs_p_minus_1(self):
        mach = BSPm(MachineParams(p=8, m=2, L=1.0))
        res = mach.run(one_to_all_prog)
        assert res.time == 7.0  # span 7, h 7; bandwidth never binds

    def test_overload_exponential(self):
        p, m = 16, 2
        mach = BSPm(MachineParams(p=p, m=m, L=1.0))
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x", slot=0)
            yield
        res = mach.run(prog)
        # one slot with 16 flits: charge e^{16/2 - 1} = e^7
        assert res.records[0].stats["c_m"] == pytest.approx(np.exp(7))

    def test_overload_linear_penalty(self):
        mach = BSPm(MachineParams(p=16, m=2, L=1.0), penalty=LINEAR)
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x", slot=0)
            yield
        res = mach.run(prog)
        assert res.records[0].stats["c_m"] == pytest.approx(8.0)

    def test_idle_slots_cost_unit_time(self):
        """A lone flit at slot 99 keeps the superstep open for 100 slots."""
        mach = BSPm(MachineParams(p=4, m=2, L=1.0))
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "x", slot=99)
            yield
        res = mach.run(prog)
        assert res.records[0].stats["span"] == 100.0
        assert res.time == 100.0
        # the literal paper charge only counts the nonempty slot
        assert res.records[0].stats["c_m_paper"] == 1.0

    def test_requires_m(self):
        with pytest.raises(ValueError):
            BSPm(MachineParams(p=4))

    def test_nonconsecutive_flits(self):
        mach = BSPm(MachineParams(p=4, m=4, L=1.0))
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "x", size=3, slot=0, consecutive=False)
            yield
        with pytest.raises(ModelViolation):
            # 3 flits in the same slot from one processor
            mach.run(prog)


class TestSelfScheduling:
    def test_charges_n_over_m(self):
        mach = SelfSchedulingBSPm(MachineParams(p=8, m=2, L=1.0))
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x", slot=0)  # slots ignored
            yield
        res = mach.run(prog)
        assert res.time == 4.0  # n/m = 8/2; h = 1; L = 1

    def test_h_floor(self):
        mach = SelfSchedulingBSPm(MachineParams(p=8, m=8, L=1.0))
        res = mach.run(one_to_all_prog)
        assert res.time == 7.0  # h = 7 > n/m = 7/8


class TestQSMg:
    def test_phase_floor_is_g(self):
        mach = QSMg(MachineParams(p=4, g=5.0))
        def prog(ctx):
            ctx.write(("x", ctx.pid), 1)
            yield
        assert mach.run(prog).time == 5.0  # h = max(1, 1), cost g*1

    def test_contention_term(self):
        mach = QSMg(MachineParams(p=16, g=2.0))
        def prog(ctx):
            ctx.write("hot", ctx.pid)
            yield
        assert mach.run(prog).time == 16.0  # kappa = 16 > g*1

    def test_gh_term(self):
        mach = QSMg(MachineParams(p=4, g=3.0))
        def prog(ctx):
            if ctx.pid == 0:
                for j in range(5):
                    ctx.write(("c", j), j)
            yield
        assert mach.run(prog).time == 15.0  # g * h = 3 * 5


class TestQSMm:
    def test_staggered_writes_unit_charge(self):
        mach = QSMm(MachineParams(p=8, m=4))
        def prog(ctx):
            ctx.write(("x", ctx.pid), 1, slot=ctx.stagger_slot())
            yield
        res = mach.run(prog)
        # 8 writes over 2 slots of 4: c_m = 2
        assert res.records[0].stats["c_m"] == 2.0

    def test_two_requests_same_slot_violate(self):
        mach = QSMm(MachineParams(p=2, m=2))
        def prog(ctx):
            ctx.write(("a", ctx.pid), 1, slot=0)
            ctx.write(("b", ctx.pid), 1, slot=0)
            yield
        with pytest.raises(ModelViolation):
            mach.run(prog)

    def test_requires_m(self):
        with pytest.raises(ValueError):
            QSMm(MachineParams(p=4))


class TestPRAM:
    def test_erew_violation(self):
        mach = PRAM(MachineParams(p=4), rule=ConcurrencyRule.EREW)
        def prog(ctx):
            ctx.read("same")
            yield
        with pytest.raises(ModelViolation, match="EREW"):
            mach.run(prog)

    def test_erew_ok_distinct(self):
        mach = PRAM(MachineParams(p=4), rule=ConcurrencyRule.EREW)
        def prog(ctx):
            ctx.write(ctx.pid, 1)
            yield
        assert mach.run(prog).time == 1.0

    def test_erew_scalar_write_write_violation(self):
        # two processors ctx.write() the same cell in one step
        mach = PRAM(MachineParams(p=4), rule=ConcurrencyRule.EREW)
        def prog(ctx):
            if ctx.pid < 2:
                ctx.write("hot", ctx.pid)
            yield
        with pytest.raises(ModelViolation, match="EREW.*contention 2"):
            mach.run(prog)

    def test_erew_scalar_read_write_same_cell_allowed(self):
        # mixed access is read-then-write step semantics: one reader plus
        # one writer on a cell is contention 1 on each side, not a conflict
        mach = PRAM(MachineParams(p=4), rule=ConcurrencyRule.EREW)
        def prog(ctx):
            if ctx.pid == 0:
                ctx.read("cell")
            elif ctx.pid == 1:
                ctx.write("cell", 7)
            yield
        assert mach.run(prog).time == 1.0

    def test_erew_violation_is_not_a_program_error(self):
        from repro import ProgramError
        mach = PRAM(MachineParams(p=2), rule=ConcurrencyRule.EREW)
        def prog(ctx):
            ctx.read(0)
            yield
        with pytest.raises(ModelViolation) as excinfo:
            mach.run(prog)
        assert not isinstance(excinfo.value, ProgramError)

    def test_qrqw_charges_queue(self):
        mach = PRAM(MachineParams(p=8), rule=ConcurrencyRule.QRQW)
        def prog(ctx):
            ctx.read("hot")
            yield
        assert mach.run(prog).time == 8.0

    def test_crcw_unit_step(self):
        mach = PRAM(MachineParams(p=8), rule=ConcurrencyRule.CRCW)
        def prog(ctx):
            ctx.write("hot", ctx.pid)
            yield
        assert mach.run(prog).time == 1.0

    def test_rule_from_string(self):
        mach = PRAM(MachineParams(p=2), rule="qrqw")
        assert mach.rule is ConcurrencyRule.QRQW


class TestPRAMm:
    def test_address_range_enforced(self):
        mach = PRAMm(MachineParams(p=4, m=2))
        def prog(ctx, rom):
            ctx.write(5, 1)  # only cells 0..1 exist
            yield
        with pytest.raises(ModelViolation, match="shared address"):
            mach.run(prog)

    def test_non_int_address_rejected(self):
        mach = PRAMm(MachineParams(p=4, m=2))
        def prog(ctx, rom):
            ctx.write("name", 1)
            yield
        with pytest.raises(ModelViolation):
            mach.run(prog)

    def test_rom_read_is_free(self):
        mach = PRAMm(MachineParams(p=4, m=2))
        def prog(ctx, rom):
            # touching the whole ROM costs nothing
            total = sum(rom)
            ctx.write(0, total)
            yield
            h = ctx.read(0)
            yield
            return h.value
        res = mach.run(prog, rom=[1, 2, 3, 4])
        assert res.results == [10] * 4
        assert res.time == 2.0


MACHINE_CLASSES = [
    name
    for name in repro.models.__all__
    if isinstance(getattr(repro.models, name), type)
    and issubclass(getattr(repro.models, name), repro.models.Machine)
]


@pytest.mark.parametrize("name", MACHINE_CLASSES)
def test_price_type_hints_resolve(name):
    """Every model's ``_price`` and ``_price_batch`` annotations name types
    their modules import, and ``_price`` stays the base class's batch of
    one (a model defines its pricing only in ``_price_batch``)."""
    cls = getattr(repro.models, name)
    priced = typing.Tuple[float, CostBreakdown, typing.Dict[str, float]]
    assert typing.get_type_hints(cls._price)["return"] == priced
    batch_hints = typing.get_type_hints(cls._price_batch)
    assert batch_hints["return"] == typing.List[priced]
    assert batch_hints["machines"] == typing.Sequence[repro.models.Machine]
    assert cls._price is repro.models.Machine._price
