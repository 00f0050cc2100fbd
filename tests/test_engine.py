"""Engine semantics: supersteps, delivery, read handles, model rules."""

import numpy as np
import pytest

from repro import BSPg, BSPm, MachineParams, ModelViolation, ProgramError, QSMg, QSMm
from repro.core.engine import ReadHandle
from repro.scheduling import unbalanced_send
from repro.scheduling.execute import compile_schedule
from repro.workloads import uniform_random_relation
from tests.barrier_columns import barrier_columns, replay_columns


def make_bspg(p=4, g=2.0, L=1.0):
    return BSPg(MachineParams(p=p, g=g, L=L))


def make_bspm(p=4, m=2, L=1.0):
    return BSPm(MachineParams(p=p, m=m, L=L))


class TestSuperstepStructure:
    def test_single_yield_program(self):
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, ctx.pid)
            yield
            return [m.payload for m in ctx.receive()]

        res = make_bspg().run(prog)
        assert res.supersteps >= 1
        assert res.results == [[3], [0], [1], [2]]

    def test_plain_function_program(self):
        def prog(ctx):
            ctx.work(2.0)
            return ctx.pid * 10

        res = make_bspg().run(prog)
        assert res.results == [0, 10, 20, 30]
        assert res.supersteps == 1
        assert res.records[0].work == [2.0] * 4

    def test_trailing_empty_superstep_not_charged(self):
        def prog(ctx):
            ctx.send(0, "x")
            yield
            return None  # no ops after the last yield

        res = make_bspg().run(prog)
        assert res.supersteps == 1

    def test_ops_after_last_yield_are_charged(self):
        def prog(ctx):
            yield
            ctx.work(5.0)
            return None

        res = make_bspg().run(prog)
        assert res.supersteps == 2
        assert res.records[1].work == [5.0] * 4

    def test_uneven_completion(self):
        def prog(ctx):
            for _ in range(ctx.pid + 1):
                yield
            return ctx.pid

        res = make_bspg().run(prog)
        assert res.results == [0, 1, 2, 3]

    def test_max_supersteps_guard(self):
        def forever(ctx):
            while True:
                ctx.work(1)
                yield

        with pytest.raises(ProgramError, match="exceeded"):
            make_bspg().run(forever, max_supersteps=10)

    def test_time_is_sum_of_superstep_costs(self):
        def prog(ctx):
            ctx.work(10)
            yield
            ctx.work(20)
            yield
            return None

        res = make_bspg().run(prog)
        assert res.time == sum(r.cost for r in res.records) == 30

    def test_nprocs_subset(self):
        def prog(ctx):
            return ctx.nprocs

        res = make_bspg().run(prog, nprocs=2)
        assert res.results == [2, 2]

    def test_bad_nprocs(self):
        with pytest.raises(ValueError):
            make_bspg().run(lambda ctx: None, nprocs=99)

    def test_per_proc_args_length_checked(self):
        with pytest.raises(ValueError):
            make_bspg().run(lambda ctx, v: v, per_proc_args=[(1,)])


class TestMessaging:
    def test_inbox_cleared_between_supersteps(self):
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "a")
            yield
            first = [m.payload for m in ctx.receive()]
            yield
            second = [m.payload for m in ctx.receive()]
            return (first, second)

        res = make_bspg().run(prog)
        assert res.results[1] == (["a"], [])

    def test_send_out_of_range(self):
        def prog(ctx):
            ctx.send(99, "x")
            yield

        with pytest.raises(ProgramError, match="out of range"):
            make_bspg().run(prog)

    def test_negative_work_rejected(self):
        def prog(ctx):
            ctx.work(-1)
            yield

        with pytest.raises(ProgramError):
            make_bspg().run(prog)

    def test_multi_flit_message_counts_in_h(self):
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "big", size=5)
            yield

        res = make_bspg().run(prog)
        assert res.records[0].stats["h"] == 5.0

    def test_read_on_bsp_machine_rejected(self):
        def prog(ctx):
            ctx.read("x")
            yield

        with pytest.raises(ProgramError, match="message-passing"):
            make_bspg().run(prog)


class TestSlotRules:
    def test_same_slot_double_injection_violates_on_bspm(self):
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "a", slot=0)
                ctx.send(2, "b", slot=0)
            yield

        with pytest.raises(ModelViolation, match="two flits"):
            make_bspm().run(prog)

    def test_same_slot_fine_on_bspg(self):
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "a", slot=0)
                ctx.send(2, "b", slot=0)
            yield

        make_bspg().run(prog)  # locally-limited machines ignore slots

    def test_consecutive_flits_conflict_detected(self):
        def prog(ctx):
            if ctx.pid == 0:
                ctx.send(1, "a", size=3, slot=0)
                ctx.send(2, "b", slot=2)
            yield

        with pytest.raises(ModelViolation):
            make_bspm().run(prog)

    def test_auto_slots_never_conflict(self):
        def prog(ctx):
            for d in range(ctx.nprocs):
                if d != ctx.pid:
                    ctx.send(d, "x")
            yield

        make_bspm().run(prog)

    def test_stagger_slot_bounds_load(self):
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x", slot=ctx.stagger_slot())
            yield

        mach = make_bspm(p=8, m=2)
        res = mach.run(prog)
        assert res.records[0].stats["max_slot_load"] <= 2

    def test_stagger_slot_none_on_local_machine(self):
        def prog(ctx):
            assert ctx.stagger_slot() is None
            yield

        make_bspg().run(prog)


class TestReadHandle:
    def test_unresolved_access_raises(self):
        h = ReadHandle("addr")
        assert not h.resolved
        with pytest.raises(ProgramError, match="not yet resolved"):
            _ = h.value

    def test_premature_read_in_program(self):
        def prog(ctx):
            h = ctx.read("x")
            _ = h.value  # before the barrier: illegal
            yield

        machine = QSMg(MachineParams(p=2, g=2.0))
        with pytest.raises(ProgramError):
            machine.run(prog)

    def test_read_sees_pre_step_value_on_crcw(self):
        """Read-then-write step semantics: a step's reads see memory from
        before that step's writes.  (QSM forbids mixed access to one
        location in a phase, so this is exercised on the CRCW PRAM, where
        mixed access is the norm.)"""
        from repro.models.pram import PRAM, ConcurrencyRule

        def prog(ctx):
            if ctx.pid == 0:
                ctx.write("cell", "new")
            h = None
            if ctx.pid == 1:
                h = ctx.read("cell")
            yield
            return h.value if h else None

        machine = PRAM(MachineParams(p=2), rule=ConcurrencyRule.CRCW)
        machine.shared_memory["cell"] = "old"
        res = machine.run(prog)
        assert res.results[1] == "old"
        assert machine.shared_memory["cell"] == "new"


class TestQSMRules:
    def test_mixed_read_write_same_location_violates(self):
        def prog(ctx):
            if ctx.pid == 0:
                ctx.write("x", 1)
            else:
                ctx.read("x")
            yield

        with pytest.raises(ModelViolation, match="both read and written"):
            QSMg(MachineParams(p=2, g=2.0)).run(prog)

    def test_concurrent_writes_arbitrary_resolution(self):
        def prog(ctx):
            ctx.write("x", ctx.pid)
            yield

        machine = QSMg(MachineParams(p=4, g=2.0))
        machine.run(prog)
        assert machine.shared_memory["x"] in (0, 1, 2, 3)

    def test_contention_priced(self):
        def prog(ctx):
            ctx.write(("w", ctx.pid), 1)
            yield
            ctx.read(("w", 0))  # everyone reads one location
            yield

        machine = QSMg(MachineParams(p=8, g=1.0))
        res = machine.run(prog)
        assert res.records[1].stats["kappa"] == 8.0
        assert res.records[1].cost >= 8.0

    @pytest.mark.parametrize("model", [QSMg, QSMm])
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_negative_scalar_slot_rejected(self, op, model):
        def prog(ctx):
            if op == "read":
                ctx.read(0, slot=-1)
            else:
                ctx.write(0, ctx.pid, slot=-3)
            yield

        machine = model(MachineParams(p=4, g=2.0, m=2))
        with pytest.raises(ValueError, match="slot must be >= 0, got -"):
            machine.run(prog)

    def test_send_on_qsm_rejected(self):
        def prog(ctx):
            yield  # make it a generator before the error path
            ctx.send(0, "x")
            yield

        with pytest.raises(ProgramError, match="shared"):
            # QSM procs cannot send point-to-point... message goes through
            # the shared-memory API instead
            QSMg(MachineParams(p=2, g=2.0)).run(prog)


class TestRunResultHelpers:
    def test_stat_sum_and_max(self):
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x")
            yield
            ctx.send((ctx.pid + 2) % ctx.nprocs, "y")
            ctx.send((ctx.pid + 3) % ctx.nprocs, "z")
            yield
            return None

        res = make_bspg().run(prog)
        assert res.total_messages == 12
        assert res.stat_max("h") == 2.0
        assert res.stat_sum("n") == 12.0

    def test_dominant_components(self):
        def prog(ctx):
            ctx.work(100)
            yield

        res = make_bspg().run(prog)
        assert res.dominant_components() == {"work": 100.0}


class TestRecordRelease:
    """A superstep's traffic ends at its barrier: a finished record keeps
    its price and four counts, and no batch, on the live loop and on
    compiled replay alike."""

    @staticmethod
    def _assert_counts_without_columns(res, twins):
        """``twins`` hold each record's columns as its barrier saw them."""
        assert res.records
        for rec, twin in zip(res.records, twins, strict=True):
            assert (rec.msg_batch, rec.read_batch, rec.write_batch) == (None, None, None)
            assert rec.n_messages == twin.msg_batch.n
            assert rec.total_flits == int(twin.msg_batch.size.sum())
            assert rec.n_reads == twin.read_batch.n
            assert rec.n_writes == twin.write_batch.n
            assert rec.cost == twin.cost and rec.stats == twin.stats
        assert res.total_messages == sum(t.msg_batch.n for t in twins)
        assert res.total_flits == sum(int(t.msg_batch.size.sum()) for t in twins)

    def test_live_message_run(self):
        def prog(ctx):
            ctx.send((ctx.pid + 1) % ctx.nprocs, "x", size=3)
            ctx.send_many([(ctx.pid + 2) % ctx.nprocs] * 2, payloads=["y", "z"])
            yield
            ctx.work(len(ctx.receive()))
            yield
            ctx.send(0, size=2)
            yield

        with barrier_columns() as columns:
            res = make_bspm(p=8, m=4).run(prog)
        self._assert_counts_without_columns(res, columns.of(res))
        assert (res.total_messages, res.total_flits) == (32, 56)

    def test_live_shared_memory_run(self):
        def prog(ctx):
            ctx.write_many(np.arange(3) + 3 * ctx.pid, [ctx.pid] * 3)
            yield
            handle = ctx.read_many(np.arange(2) + 3 * ((ctx.pid + 1) % ctx.nprocs))
            yield
            return handle.values

        with barrier_columns() as columns:
            res = QSMm(MachineParams(p=4, m=2)).run(prog)
        self._assert_counts_without_columns(res, columns.of(res))
        assert [(r.n_reads, r.n_writes) for r in res.records] == [(0, 12), (8, 0)]
        assert res.results[0] == [1, 1]

    def test_compiled_replay(self):
        rel = uniform_random_relation(8, 300, seed=1)
        compiled = compile_schedule(unbalanced_send(rel, 4, 0.2, seed=2))
        machines = [BSPm(MachineParams(p=8, m=m, L=2.0)) for m in (2, 4)]
        for res in [compiled.replay(machines[0]), *compiled.replay_batch(machines)]:
            self._assert_counts_without_columns(res, replay_columns(compiled, res))
            assert res.total_flits == 300
        assert compiled.batch.n == 300  # the compiled superstep keeps its columns
