"""Algorithm-layer vectorization — bit-identity vs the frozen scalar twins.

Every Table-1 / Section-5 / Section-6 program that was ported to the
columnar batch APIs (``send_many`` / ``read_many`` / ``write_many`` +
``ctx.receive().payloads``) is gated here against its verbatim scalar
original from :mod:`repro.algorithms.scalar_reference`: same
``RunResult.time``, same per-superstep costs and stats, same message/flit
totals, same program results, on every machine model the algorithm targets.
"""

import operator

import numpy as np
import pytest

from repro import (
    BSPg,
    BSPm,
    MachineParams,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
)
from repro.algorithms import scalar_reference as sr
from repro.algorithms.list_ranking import (
    _contraction_program,
    random_list,
    sequential_ranks,
)
from repro.algorithms.one_to_all import (
    one_to_all_bsp_program,
    one_to_all_qsm_program,
)
from repro.algorithms.prefix import (
    reduce_funnel_bsp_program,
    reduce_funnel_qsm_program,
    reduce_tree_bsp_program,
    reduce_tree_qsm_program,
)
from repro.algorithms.qsm_on_bsp import run_qsm_program_on_bsp
from repro.algorithms.sample_sort import _sample_sort_program, sample_sort
from repro.algorithms.sorting import (
    _columnsort_program,
    _columnsort_qsm_program,
    choose_columns,
)
from repro.util.intmath import ceil_div, ilog2
from repro.util.rng import as_generator

P = 16
MSG_MACHINES = [BSPg, BSPm, SelfSchedulingBSPm]
QSM_MACHINES = [QSMg, QSMm]


def make(cls):
    return cls(MachineParams(p=P, m=4, g=2.0, L=3))


def assert_equivalent_runs(res_a, res_b):
    assert res_a.time == res_b.time
    assert res_a.supersteps == res_b.supersteps
    assert [r.cost for r in res_a.records] == [r.cost for r in res_b.records]
    assert [r.stats for r in res_a.records] == [r.stats for r in res_b.records]
    assert res_a.total_messages == res_b.total_messages
    assert res_a.total_flits == res_b.total_flits


# ----------------------------------------------------------------------
# one-to-all personalized communication
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", MSG_MACHINES)
@pytest.mark.parametrize("root", [0, 3])
def test_one_to_all_bsp(cls, root):
    payloads = [f"pkt{i}" for i in range(P)]
    res_b = make(cls).run(one_to_all_bsp_program, args=(payloads, root))
    res_s = make(cls).run(sr.one_to_all_bsp_scalar, args=(payloads, root))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results == payloads


@pytest.mark.parametrize("cls", QSM_MACHINES)
@pytest.mark.parametrize("root", [0, 3])
def test_one_to_all_qsm(cls, root):
    payloads = [f"pkt{i}" for i in range(P)]
    res_b = make(cls).run(one_to_all_qsm_program, args=(payloads, root))
    res_s = make(cls).run(sr.one_to_all_qsm_scalar, args=(payloads, root))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results == payloads


# ----------------------------------------------------------------------
# columnsort
# ----------------------------------------------------------------------


def _run_columnsort(machine, keys, program):
    """Replicates the host-side setup of :func:`repro.algorithms.sorting.
    columnsort` so the scalar twin runs through identical parameters."""
    keys = np.asarray(keys, dtype=np.float64)
    n = keys.size
    p = machine.params.p
    m = machine.params.m
    cap = m if m is not None else p
    limit = cap - 1 if machine.uses_shared_memory else cap
    r, s = choose_columns(n, min(max(1, limit), p - 1))
    assert s > 1  # pick n large enough to exercise the real program
    per_proc = ceil_div(n, p)
    chunks = [
        [float(x) for x in keys[i * per_proc : (i + 1) * per_proc]] for i in range(p)
    ]
    res = machine.run(
        program, args=(n, r, s, cap, per_proc), per_proc_args=[(c,) for c in chunks]
    )
    out = []
    for block in res.results:
        if block:
            out.extend(block)
    return res, np.asarray(out, dtype=np.float64)


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_columnsort_bsp(cls):
    keys = as_generator(11).uniform(-50, 50, size=100)
    res_b, out_b = _run_columnsort(make(cls), keys, _columnsort_program)
    res_s, out_s = _run_columnsort(make(cls), keys, sr.columnsort_bsp_scalar)
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert np.array_equal(out_b, np.sort(keys))


@pytest.mark.parametrize("cls", QSM_MACHINES)
def test_columnsort_qsm(cls):
    keys = as_generator(12).uniform(-50, 50, size=100)
    res_b, out_b = _run_columnsort(make(cls), keys, _columnsort_qsm_program)
    res_s, out_s = _run_columnsort(make(cls), keys, sr.columnsort_qsm_scalar)
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert np.array_equal(out_b, np.sort(keys))


# ----------------------------------------------------------------------
# sample sort
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_sample_sort(cls):
    keys = as_generator(13).uniform(-1000, 1000, size=200)
    res_b, out_b = sample_sort(make(cls), keys, seed=5)
    res_s, out_s = sr.sample_sort_scalar(make(cls), keys, seed=5)
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert np.array_equal(out_b, np.sort(keys))
    assert np.array_equal(out_s, out_b)


def test_sample_sort_scalar_twin_matches_program_signature():
    """The scalar twin must stay in lock-step with the live program's
    argument list — a drift here silently voids the benchmark baseline."""
    import inspect

    live = inspect.signature(_sample_sort_program)
    twin = inspect.signature(sr.sample_sort_scalar_program)
    assert list(live.parameters) == list(twin.parameters)


# ----------------------------------------------------------------------
# list-ranking contraction
# ----------------------------------------------------------------------


def _run_contraction(machine, succ, program, seed):
    """Replicates :func:`repro.algorithms.list_ranking.
    list_ranking_contraction`'s host setup (same RNG stream -> same
    per-processor seeds for both programs)."""
    succ = np.asarray(succ, dtype=np.int64)
    n = succ.size
    p = machine.params.p
    m = machine.params.m
    a = min(p, m) if m is not None else p
    max_rounds = 4 * (ilog2(max(1, n)) + 1) + 16
    rng = as_generator(seed)
    seeds = rng.integers(0, 2**62, size=p)
    blocks = [dict() for _ in range(p)]
    for u in range(n):
        blocks[u % a][u] = int(succ[u])
    per_proc = [(blocks[i], int(seeds[i])) for i in range(p)]
    return machine.run(program, args=(a, max_rounds), per_proc_args=per_proc)


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_contraction(cls):
    succ = random_list(48, seed=21)
    res_b = _run_contraction(make(cls), succ, _contraction_program, seed=9)
    res_s = _run_contraction(make(cls), succ, sr.contraction_scalar, seed=9)
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    ranks = np.full(48, -1, dtype=np.int64)
    for out in res_b.results:
        for u, r in out.get("ranks", {}).items():
            ranks[u] = r
    assert np.array_equal(ranks, sequential_ranks(succ))


# ----------------------------------------------------------------------
# QSM-on-BSP emulation
# ----------------------------------------------------------------------


def _emu_workload(ctx, phases):
    """A QSM-style program with both reads and writes every phase; reads
    see the *previous* phase's writes (QSM read rule)."""
    pid, p = ctx.pid, ctx.nprocs
    total = 0.0
    for ph in range(phases):
        ctx.write(("cell", pid), float(pid * 100 + ph))
        handles = [ctx.read(("cell", (pid + d) % p)) for d in range(1, 4)]
        ctx.work(1)
        yield
        total += sum(h.value for h in handles if h.value is not None)
    return total


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_qsm_on_bsp_emulation(cls):
    res_b = run_qsm_program_on_bsp(make(cls), _emu_workload, args=(4,))
    res_s = sr.run_qsm_on_bsp_scalar(make(cls), _emu_workload, args=(4,))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    # phases 1..3 each add the three neighbours' previous-phase values
    expected = [
        sum(
            ((pid + d) % P) * 100 + (ph - 1)
            for ph in range(1, 4)
            for d in range(1, 4)
        )
        for pid in range(P)
    ]
    assert res_b.results == expected


# ----------------------------------------------------------------------
# reductions (summation / parity skeleton)
# ----------------------------------------------------------------------


def _reduce_values(seed=17):
    return [int(v) for v in as_generator(seed).integers(-100, 100, size=P)]


def _run_reduce(machine, program, args):
    values = _reduce_values()
    return machine.run(program, args=args, per_proc_args=[(v,) for v in values])


@pytest.mark.parametrize("cls", MSG_MACHINES)
@pytest.mark.parametrize("b", [2, 3])
def test_reduce_tree_bsp(cls, b):
    res_b = _run_reduce(make(cls), reduce_tree_bsp_program, (operator.add, b))
    res_s = _run_reduce(make(cls), sr.reduce_tree_bsp_scalar, (operator.add, b))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert res_b.results[0] == sum(_reduce_values())


@pytest.mark.parametrize("cls", MSG_MACHINES)
def test_reduce_funnel_bsp(cls):
    res_b = _run_reduce(make(cls), reduce_funnel_bsp_program, (operator.add, 4, 2))
    res_s = _run_reduce(make(cls), sr.reduce_funnel_bsp_scalar, (operator.add, 4, 2))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert res_b.results[0] == sum(_reduce_values())


@pytest.mark.parametrize("cls", QSM_MACHINES)
@pytest.mark.parametrize("b", [2, 3])
def test_reduce_tree_qsm(cls, b):
    res_b = _run_reduce(make(cls), reduce_tree_qsm_program, (operator.add, b))
    res_s = _run_reduce(make(cls), sr.reduce_tree_qsm_scalar, (operator.add, b))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert res_b.results[0] == sum(_reduce_values())


def test_reduce_tree_qsm_without_aggregate_bandwidth():
    """QSM(g) has ``m = None``: ``stagger_slots`` returns ``None`` and the
    batch read must still price like the scalar slot-less reads."""
    machine_args = MachineParams(p=P, g=2.0, L=3)
    res_b = _run_reduce(QSMg(machine_args), reduce_tree_qsm_program, (operator.add, 3))
    res_s = _run_reduce(QSMg(machine_args), sr.reduce_tree_qsm_scalar, (operator.add, 3))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results


@pytest.mark.parametrize("cls", QSM_MACHINES)
def test_reduce_funnel_qsm(cls):
    res_b = _run_reduce(make(cls), reduce_funnel_qsm_program, (operator.add, 4, 2))
    res_s = _run_reduce(make(cls), sr.reduce_funnel_qsm_scalar, (operator.add, 4, 2))
    assert_equivalent_runs(res_s, res_b)
    assert res_s.results == res_b.results
    assert res_b.results[0] == sum(_reduce_values())
