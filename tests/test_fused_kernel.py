"""Bit-identity gates for the superstep barrier loop.

The live loop (arena-backed freeze + kernel pricing + bincount delivery)
and the compiled routing superstep that ``execute_schedule`` replays are
optimizations, not semantic changes: every model
time, cost breakdown, stats dict (keys in order), frozen record column,
per-processor result and post-run shared memory must equal what the
engine's original gather loop produced.  Those runs are pinned in
``golden_records.json``, recorded before the gather loop was removed; the
gather and arena loops both reproduced them exactly.  This module is the
gate — a full model × {plain, faulted, traced} matrix and a penalty-family
matrix over scalar-call and columnar-call programs, checked against the
golden records, plus the replay and arena-reuse contracts.  A finished
record holds no columns, so the columns compared here are captured at each
barrier (:mod:`tests.barrier_columns`); a replay's are its compiled batch.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.costs import (
    EXPONENTIAL,
    LINEAR,
    CapacityPenalty,
    PolynomialPenalty,
)
from repro.core.params import MachineParams
from repro.faults import FaultPlan
from repro.models.bsp_g import BSPg
from repro.models.bsp_m import BSPm
from repro.models.qsm_g import QSMg
from repro.models.qsm_m import QSMm
from repro.models.self_scheduling import SelfSchedulingBSPm
from repro.obs import Tracer, tracing
from repro.scheduling import unbalanced_send
from repro.scheduling.execute import compile_schedule, execute_schedule
from repro.workloads import uniform_random_relation
from tests.barrier_columns import barrier_columns, replay_columns

P = 8
SPAN = P * 6

MESSAGE_MODELS = [BSPg, BSPm, SelfSchedulingBSPm]
QSM_MODELS = [QSMg, QSMm]
ALL_MODELS = MESSAGE_MODELS + QSM_MODELS


def _machine(model, penalty=None):
    params = MachineParams(p=P, g=2.0, L=8.0, m=4)
    if penalty is not None and model in (BSPm, QSMm):
        mach = model(params, penalty=penalty)
    else:
        mach = model(params)
    if mach.uses_shared_memory:
        mach.use_dense_memory(SPAN)
    return mach


def _msg_program(ctx, p):
    """Scalar sends (tuple / int / None payloads) interleaved with
    ``send_many`` over three supersteps — exercises chunk merging, slot
    assignment and every payload-column representation."""
    ctx.work(1.0 + 0.25 * ctx.pid)
    ctx.send((ctx.pid + 1) % p, payload=ctx.pid)
    ctx.send((ctx.pid + 2) % p, size=2)
    yield
    first = _norm(ctx.receive().payloads)
    dests = (np.arange(3, dtype=np.int64) + ctx.pid + 1) % p
    ctx.send_many(dests, payloads=np.arange(3, dtype=np.int64) + 10 * ctx.pid)
    ctx.send((ctx.pid + 3) % p, payload=("tag", ctx.pid))
    yield
    second = _norm(ctx.receive().payloads)
    if ctx.pid % 2 == 0:
        ctx.send((ctx.pid + 1) % p, payload=None, size=3)
    yield
    third = _norm(ctx.receive().payloads)
    return (first, second, third)


def _qsm_program(ctx, p):
    """Scalar and batched shared-memory requests over two phases."""
    k = 4
    addrs = (ctx.pid * k + np.arange(k, dtype=np.int64)) % SPAN
    ctx.work(0.5 * ctx.pid)
    ctx.write_many(addrs, np.arange(k, dtype=np.int64) + 100 * ctx.pid)
    ctx.write((ctx.pid * 7) % SPAN, -ctx.pid)
    yield
    handle = ctx.read_many((addrs + k) % SPAN)
    scalar = ctx.read((ctx.pid * 11) % SPAN)
    yield
    return (_norm(handle.values), _norm(scalar.value))


def _norm(value):
    """Canonical nested-python form of a result for cross-path equality
    (unwraps ``CorruptedPayload`` markers, flattens arrays)."""
    from repro.faults.plan import CorruptedPayload

    if isinstance(value, CorruptedPayload):
        return ("corrupted", _norm(value.original))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _column_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, np.ndarray) != isinstance(b, np.ndarray):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return _norm(list(a)) == _norm(list(b))


def _assert_records_identical(res_a, cols_a, res_b, cols_b):
    """``cols_*`` are the runs' records with their barrier columns."""
    assert res_a.time == res_b.time
    assert len(res_a.records) == len(res_b.records)
    for ra, rb in zip(cols_a, cols_b):
        assert ra.cost == rb.cost
        assert list(ra.stats.items()) == list(rb.stats.items())
        assert ra.breakdown == rb.breakdown
        assert ra.work == rb.work
        ma, mb = ra.msg_batch, rb.msg_batch
        for col in ("src", "dest", "size", "slot", "consecutive"):
            assert np.array_equal(getattr(ma, col), getattr(mb, col)), col
        assert _column_equal(ma.payload, mb.payload)
        for ba, bb in ((ra.read_batch, rb.read_batch), (ra.write_batch, rb.write_batch)):
            assert np.array_equal(ba.pid, bb.pid)
            assert np.array_equal(ba.slot, bb.slot)
            assert _column_equal(
                ba.addr if isinstance(ba.addr, np.ndarray) else list(ba.addr or []),
                bb.addr if isinstance(bb.addr, np.ndarray) else list(bb.addr or []),
            )
            assert _column_equal(ba.value, bb.value)


def _assert_results_identical(res_a, res_b):
    assert len(res_a.results) == len(res_b.results)
    for a, b in zip(res_a.results, res_b.results):
        assert _norm(a) == _norm(b)


# ----------------------------------------------------------------------
# Golden records
# ----------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")


def _encode(value):
    """Type-tagged JSON form of a column, payload or result: arrays keep
    their dtype and tuples stay tuples, so a change of representation (a
    list payload column where an array was) fails as surely as a change
    of value."""
    from repro.faults.plan import CorruptedPayload

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return {"ndarray": value.dtype.str, "values": _encode(value.tolist())}
    if isinstance(value, np.generic):
        return {"scalar": value.dtype.str, "value": value.item()}
    if isinstance(value, tuple):
        return {"tuple": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, CorruptedPayload):
        return {"corrupted": _encode(value.original)}
    raise TypeError(f"no golden encoding for {type(value).__name__}")


def _encode_batch(batch, columns):
    return {col: _encode(getattr(batch, col)) for col in columns}


def _encode_run(res, machine, columns):
    """Everything a run pins: model time, each record's price and frozen
    columns (as ``columns`` captured them at its barrier), the
    per-processor results and (QSM) the final memory."""
    return {
        "time": res.time,
        "records": [
            {
                "index": r.index,
                "cost": r.cost,
                "breakdown": dataclasses.asdict(r.breakdown),
                "stats": [[k, _encode(v)] for k, v in r.stats.items()],
                "work": _encode(list(r.work)),
                "msg": _encode_batch(
                    r.msg_batch, ("src", "dest", "size", "slot", "consecutive", "payload")
                ),
                "read": _encode_batch(r.read_batch, ("pid", "addr", "slot", "value")),
                "write": _encode_batch(r.write_batch, ("pid", "addr", "slot", "value")),
            }
            for r in columns.of(res)
        ],
        "results": _encode(res.results),
        "memory": (
            [[k, _encode(v)] for k, v in machine.shared_memory.items()]
            if machine.uses_shared_memory
            else None
        ),
    }


def _run_case(model, *, faulted=False, traced=False, penalty=None):
    """Run the model's workload program; return ``(encoded run, tracer)``."""
    program = _qsm_program if model in QSM_MODELS else _msg_program
    mach = _machine(model, penalty=penalty)
    if faulted:
        mach.inject_faults(
            FaultPlan(
                seed=7,
                drop_rate=0.2,
                duplicate_rate=0.15,
                reorder_rate=0.2,
                corrupt_rate=0.15,
            )
        )
    tracer = Tracer() if traced else None
    with barrier_columns() as columns:
        if tracer is not None:
            with tracing(tracer):
                res = mach.run(program, args=(P,))
        else:
            res = mach.run(program, args=(P,))
    return _encode_run(res, mach, columns), tracer


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_golden(got, expected):
    assert got == expected
    # == cannot tell 1 from 1.0 or True, nor see dict key order
    assert json.dumps(got) == json.dumps(expected)


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("variant", ["plain", "faulted", "traced"])
def test_fused_matches_legacy(model, variant, golden):
    """The live loop reproduces the gather loop's golden records."""
    got, tracer = _run_case(
        model, faulted=(variant == "faulted"), traced=(variant == "traced")
    )
    # tracing must not change the run: traced runs match the plain record
    case = "faulted" if variant == "faulted" else "plain"
    _assert_matches_golden(got, golden[f"{case}-{model.__name__}"])
    if tracer is not None:
        assert {s.name for s in tracer.find(cat="phase")} == {"fused_superstep"}


PENALTIES = {
    "linear": LINEAR,
    "exponential": EXPONENTIAL,
    "polynomial": PolynomialPenalty(degree=3.0),
}


@pytest.mark.parametrize("penalty", list(PENALTIES))
def test_penalty_families_identical_across_paths(penalty, golden):
    got, _ = _run_case(BSPm, penalty=PENALTIES[penalty])
    _assert_matches_golden(got, golden[f"penalty-{penalty}"])


def test_capacity_penalty_still_raises_on_fused_path():
    def overload(ctx, p):
        # every processor injects into slot 0 -> m_t = p > m, overload
        ctx.send((ctx.pid + 1) % p, slot=0)
        yield

    mach = BSPm(MachineParams(p=P, L=1.0, m=4), penalty=CapacityPenalty())
    with pytest.raises(OverflowError):
        mach.run(overload, args=(P,))


def test_direct_routing_matches_trampoline():
    rel = uniform_random_relation(32, 4_000, seed=2)
    sched = unbalanced_send(rel, 8, 0.2, seed=3)
    res_d = execute_schedule(BSPm(MachineParams(p=32, m=8, L=1)), sched)
    # audit=True forces the live loop (the auditor needs real barriers)
    with barrier_columns() as columns:
        res_t = execute_schedule(BSPm(MachineParams(p=32, m=8, L=1)), sched, audit=True)
    _assert_records_identical(
        res_d, replay_columns(compile_schedule(sched), res_d), res_t, columns.of(res_t)
    )
    _assert_results_identical(res_d, res_t)


def _routing_schedule():
    rel = uniform_random_relation(P, 400, seed=4)
    return unbalanced_send(rel, 4, 0.2, seed=5)


def test_compiled_replay_reprices_under_new_machine():
    sched = _routing_schedule()
    compiled = compile_schedule(sched)
    for target in (
        BSPm(MachineParams(p=P, g=2.0, L=50.0, m=4), penalty=LINEAR),
        BSPm(MachineParams(p=P, g=2.0, L=8.0, m=2)),
    ):
        res_rep = compiled.replay(target)
        twin = target.__class__(target.params, penalty=target.penalty)
        with barrier_columns() as columns:
            res_live = execute_schedule(twin, sched, audit=True)
        _assert_records_identical(
            res_rep, replay_columns(compiled, res_rep), res_live, columns.of(res_live)
        )
        _assert_results_identical(res_rep, res_live)


def test_compiled_mode_refuses_fault_injectors():
    compiled = compile_schedule(_routing_schedule())
    faulty = _machine(BSPm)
    faulty.inject_faults(FaultPlan(seed=1, drop_rate=0.5))
    with pytest.raises(ValueError, match="fault injector"):
        compiled.replay(faulty)


def test_arena_reuse_no_growth_on_rerun():
    """Steady-state reruns on one machine never regrow the arenas."""
    mach = _machine(BSPm)
    mach.run(_msg_program, args=(P,))
    assert mach._arenas is not None
    grows = [arena.grows for arena in mach._arenas]
    for _ in range(3):
        mach.run(_msg_program, args=(P,))
    assert [arena.grows for arena in mach._arenas] == grows


def test_nested_run_gets_fresh_arenas(golden):
    """A program that calls ``run`` on its own machine mid-superstep gets a
    fresh arena set: the inner and the outer run each equal the program
    run alone, and the machine's own arenas come back intact."""
    mach = _machine(BSPm)
    mach.run(_msg_program, args=(P,))
    arenas = mach._arenas
    inner = []

    def outer(ctx, p):
        steps = _msg_program(ctx, p)
        next(steps)  # this processor's first-superstep sends are in the arenas
        if ctx.pid == p // 2:
            inner.append(mach.run(_msg_program, args=(p,)))
        yield
        return (yield from steps)

    with barrier_columns() as cols:
        res = mach.run(outer, args=(P,))
        assert len(inner) == 1
        _assert_matches_golden(_encode_run(inner[0], mach, cols), golden["plain-BSPm"])
        _assert_matches_golden(_encode_run(res, mach, cols), golden["plain-BSPm"])
        assert mach._arenas is arenas and not mach._arenas_busy
        rerun = mach.run(_msg_program, args=(P,))
        _assert_matches_golden(_encode_run(rerun, mach, cols), golden["plain-BSPm"])
