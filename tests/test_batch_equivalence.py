"""Scalar vs batch API equivalence — the columnar engine's core contract.

The batch program APIs (``send_many`` / ``read_many`` / ``write_many``) must
be *pricing-invisible*: a program written with one batch call and the same
program written as a loop of scalar calls produce identical
``RunResult.time``, identical per-superstep costs and stats dicts, and
identical delivered inboxes / read values, on every machine model.  These
tests pin that contract, plus the :class:`ModelViolation` paths through the
vectorized checks (duplicate ``(src, slot)`` injection, mixed read/write
contention) and the :class:`DenseSharedMemory` fast path.
"""

import numpy as np
import pytest

from repro import (
    BSPg,
    BSPm,
    MachineParams,
    ModelViolation,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
)
from repro.core.engine import DenseSharedMemory
from tests.barrier_columns import barrier_columns

P = 16
MSG_MACHINES = [BSPg, BSPm, SelfSchedulingBSPm]
QSM_MACHINES = [QSMg, QSMm]
ALL_MACHINES = MSG_MACHINES + QSM_MACHINES


def make(cls):
    return cls(MachineParams(p=P, m=4, g=2.0, L=3))


def _pattern(pid: int, n: int):
    """A deterministic per-processor message pattern with mixed sizes."""
    i = np.arange(n, dtype=np.int64)
    dests = (pid + 1 + i * 3) % P
    sizes = 1 + (i % 3)
    return dests, sizes


def _snapshot(inbox):
    return [(m.src, m.dest, m.size, m.slot, m.payload) for m in inbox]


def scalar_msg_program(ctx, n):
    dests, sizes = _pattern(ctx.pid, n)
    for i in range(n):
        ctx.send(int(dests[i]), ("pay", ctx.pid, i), size=int(sizes[i]))
    yield
    first = _snapshot(ctx.receive())
    ctx.work(float(ctx.pid))
    dests2, sizes2 = _pattern(ctx.pid, n // 2)
    for i in range(n // 2):
        ctx.send(int(dests2[i]), ("pay2", ctx.pid, i), size=int(sizes2[i]))
    yield
    return first, _snapshot(ctx.receive())


def batch_msg_program(ctx, n):
    dests, sizes = _pattern(ctx.pid, n)
    ctx.send_many(dests, payloads=[("pay", ctx.pid, i) for i in range(n)], sizes=sizes)
    yield
    first = _snapshot(ctx.receive())
    ctx.work(float(ctx.pid))
    dests2, sizes2 = _pattern(ctx.pid, n // 2)
    ctx.send_many(
        dests2, payloads=[("pay2", ctx.pid, i) for i in range(n // 2)], sizes=sizes2
    )
    yield
    return first, _snapshot(ctx.receive())


def scalar_qsm_program(ctx, n):
    pid, p = ctx.pid, ctx.nprocs
    for j in range(n):
        ctx.write((pid * n + j) % (2 * p * n), pid * 1000 + j)
    yield
    handles = [ctx.read((pid + j) % (2 * p * n)) for j in range(n)]
    yield
    return [h.value for h in handles]


def batch_qsm_program(ctx, n):
    pid, p = ctx.pid, ctx.nprocs
    span = 2 * p * n
    ctx.write_many((pid * n + np.arange(n)) % span, pid * 1000 + np.arange(n))
    yield
    handle = ctx.read_many((pid + np.arange(n)) % span)
    yield
    return list(handle.values)


def assert_equivalent_runs(res_a, res_b):
    assert res_a.time == res_b.time
    assert res_a.supersteps == res_b.supersteps
    assert [r.cost for r in res_a.records] == [r.cost for r in res_b.records]
    assert [r.stats for r in res_a.records] == [r.stats for r in res_b.records]
    assert res_a.total_messages == res_b.total_messages
    assert res_a.total_flits == res_b.total_flits


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_send_many_equivalence(cls):
    res_s = make(cls).run(scalar_msg_program, args=(12,))
    res_b = make(cls).run(batch_msg_program, args=(12,))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results  # identical delivered inboxes


@pytest.mark.parametrize("cls", QSM_MACHINES)
def test_read_write_many_equivalence(cls):
    res_s = make(cls).run(scalar_qsm_program, args=(6,))
    res_b = make(cls).run(batch_qsm_program, args=(6,))
    assert_equivalent_runs(res_s, res_b)
    assert [list(map(int, r)) for r in res_s.results] == [
        list(map(int, r)) for r in res_b.results
    ]


@pytest.mark.parametrize("cls", ALL_MACHINES)
def test_all_five_models_report_identical_times(cls):
    """The acceptance criterion verbatim: scalar and batch paths report
    identical model times on all five machine models."""
    if cls in QSM_MACHINES:
        t_s = make(cls).run(scalar_qsm_program, args=(5,)).time
        t_b = make(cls).run(batch_qsm_program, args=(5,)).time
    else:
        t_s = make(cls).run(scalar_msg_program, args=(10,)).time
        t_b = make(cls).run(batch_msg_program, args=(10,)).time
    assert t_s == t_b


def test_mixed_scalar_and_batch_preserves_order():
    """Interleaving scalar sends around a send_many keeps issue order."""

    def mixed(ctx):
        if ctx.pid == 0:
            ctx.send(1, "a")
            ctx.send_many([1, 1], payloads=["b", "c"])
            ctx.send(1, "d")
        yield
        return [m.payload for m in ctx.receive()]

    with barrier_columns() as columns:
        res = make(BSPg).run(mixed)
    assert res.results[1] == ["a", "b", "c", "d"]
    # auto slots continue across the scalar/batch boundary
    rec = columns[res.records[0]]
    assert rec.msg_batch.slot.tolist() == [0, 1, 2, 3]


def _mixed_scalar_program(ctx, n):
    """All-scalar twin of :func:`_mixed_interleaved_program`."""
    dests, sizes = _pattern(ctx.pid, n)
    for i in range(n):
        ctx.send(int(dests[i]), ("x", ctx.pid, i), size=int(sizes[i]))
    yield
    first = _snapshot(ctx.receive())
    for i in range(n):
        ctx.send(int(dests[i]), ("y", ctx.pid, i), slot=3 * i)
    yield
    return first, _snapshot(ctx.receive())


def _mixed_interleaved_program(ctx, n):
    """Scalar sends interleaved with send_many: auto slots in superstep 1
    (multi-flit, continuing across the boundary), explicit slots in 2."""
    dests, sizes = _pattern(ctx.pid, n)
    h = n // 2
    for i in range(h):
        ctx.send(int(dests[i]), ("x", ctx.pid, i), size=int(sizes[i]))
    ctx.send_many(
        dests[h:], payloads=[("x", ctx.pid, i) for i in range(h, n)], sizes=sizes[h:]
    )
    yield
    first = _snapshot(ctx.receive())
    ctx.send(int(dests[0]), ("y", ctx.pid, 0), slot=0)
    ctx.send_many(
        dests[1:],
        payloads=[("y", ctx.pid, i) for i in range(1, n)],
        slots=3 * np.arange(1, n, dtype=np.int64),
    )
    yield
    return first, _snapshot(ctx.receive())


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_mixed_scalar_and_batch_pricing_equivalence(cls):
    """Interleaving scalar sends around batch sends — with sizes, auto
    slots, and explicit slots in the mix — prices identically to the
    all-scalar issue sequence on every message-passing model."""
    res_s = make(cls).run(_mixed_scalar_program, args=(12,))
    res_m = make(cls).run(_mixed_interleaved_program, args=(12,))
    assert res_s.time == res_m.time
    assert [r.cost for r in res_s.records] == [r.cost for r in res_m.records]
    assert [r.stats for r in res_s.records] == [r.stats for r in res_m.records]
    assert res_s.total_messages == res_m.total_messages
    assert res_s.total_flits == res_m.total_flits
    assert res_s.results == res_m.results  # identical delivered inboxes


# ----------------------------------------------------------------------
# ModelViolation paths through the vectorized checks
# ----------------------------------------------------------------------


def test_duplicate_src_slot_injection_batch():
    def dup(ctx):
        if ctx.pid == 0:
            ctx.send_many([1, 2], slots=[0, 0])
        yield

    with pytest.raises(ModelViolation, match="two flits"):
        make(BSPm).run(dup)


def test_duplicate_flit_slot_from_expansion():
    """A 2-flit message and a unit message colliding on the second slot."""

    def dup(ctx):
        if ctx.pid == 0:
            ctx.send(1, size=2, slot=0)  # occupies slots 0 and 1
            ctx.send(2, slot=1)
        yield

    with pytest.raises(ModelViolation, match="two flits"):
        make(BSPm).run(dup)


def test_duplicate_request_slot_batch():
    def dup(ctx):
        if ctx.pid == 0:
            ctx.read_many([0, 1], slots=[0, 0])
        yield
        yield

    with pytest.raises(ModelViolation, match="two shared-memory requests"):
        make(QSMm).run(dup)


@pytest.mark.parametrize("cls", QSM_MACHINES)
def test_mixed_read_write_contention_batch(cls):
    def mixed(ctx):
        if ctx.pid == 0:
            ctx.read_many([5, 6])
        else:
            ctx.write_many([5], [1])
        yield
        yield

    with pytest.raises(ModelViolation, match="both read and written"):
        make(cls).run(mixed)


@pytest.mark.parametrize("cls", QSM_MACHINES)
def test_mixed_contention_object_addresses(cls):
    """The same rule through the object-address (non-integer) group-by."""

    def mixed(ctx):
        if ctx.pid == 0:
            ctx.read_many([("cell", 5)])
        else:
            ctx.write_many([("cell", 5)], [1])
        yield
        yield

    with pytest.raises(ModelViolation, match="both read and written"):
        make(cls).run(mixed)


# ----------------------------------------------------------------------
# Dense shared memory fast path
# ----------------------------------------------------------------------


def test_dense_memory_matches_dict_memory():
    plain = make(QSMg)
    res_plain = plain.run(batch_qsm_program, args=(6,))
    dense = make(QSMg)
    dense.use_dense_memory(2 * P * 6)
    res_dense = dense.run(batch_qsm_program, args=(6,))
    assert_equivalent_runs(res_plain, res_dense)
    assert [list(map(int, r)) for r in res_plain.results] == [
        list(map(int, r)) for r in res_dense.results
    ]


def test_dense_memory_mapping_api():
    mem = DenseSharedMemory(8)
    mem[3] = "x"
    mem[("tup", 1)] = "overflow"
    mem[100] = "far"
    assert mem[3] == "x" and mem[("tup", 1)] == "overflow" and mem[100] == "far"
    assert mem.get(4) is None and mem.get(("nope",), "d") == "d"
    assert set(mem) == {3, ("tup", 1), 100}
    assert len(mem) == 3
    del mem[3]
    assert mem.get(3) is None
    mem.clear()
    assert len(mem) == 0


def test_dense_memory_duplicate_writes_last_wins():
    mem = DenseSharedMemory(8)
    mem.put(np.array([2, 2, 2]), [10, 20, 30])
    assert mem[2] == 30  # Arbitrary rule: last write in record order


def test_batch_read_handle_unresolved():
    from repro.core.engine import ProgramError

    def premature(ctx):
        h = ctx.read_many([0, 1])
        _ = h.values  # before the barrier: must raise
        yield

    with pytest.raises(ProgramError, match="not yet resolved"):
        make(QSMg).run(premature)
