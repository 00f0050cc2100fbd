"""The five paper models' pricing against the closed forms of ``core/costs.py``.

Each model prices a superstep in one place, ``Machine._price_batch``
(``_price`` is its batch of one).  This module is the independent oracle
for that definition: hypothesis draws small message and shared-memory
request columns plus per-trial parameter columns ``(g, m, L, penalty)``,
re-derives the superstep's structure with plain NumPy — ``w``, ``h``,
``kappa``, the slot histogram and ``c_m = sum_t max(f_m(m_t), 1)`` — and
asserts that every trial's model time equals the paper formula
(``bsp_g_cost``, ``bsp_m_cost``, ``self_scheduling_cost``, ``qsm_g_cost``,
``qsm_m_cost``), and that the literal paper charge in
``stats["c_m_paper"]`` equals ``superstep_charge``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BSPg, BSPm, MachineParams, QSMg, QSMm, SelfSchedulingBSPm
from repro.core.costs import (
    EXPONENTIAL,
    LINEAR,
    PenaltyFunction,
    PolynomialPenalty,
    bsp_g_cost,
    bsp_m_cost,
    qsm_g_cost,
    qsm_m_cost,
    self_scheduling_cost,
    slot_charges,
    superstep_charge,
)
from repro.core.events import MessageBatch, RequestBatch, SuperstepRecord


class _CubeRootPenalty(PenaltyFunction):
    """A custom family with no kernel id: priced through ``overload``."""

    name = "rho^(4/3)-oracle"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        return rho * np.cbrt(rho)


_I64 = np.int64

penalties = st.one_of(
    st.sampled_from([LINEAR, EXPONENTIAL, _CubeRootPenalty()]),
    st.floats(1.0, 4.0).map(PolynomialPenalty),
)

trials = st.lists(
    st.tuples(
        st.floats(1.0, 4.0),  # g
        st.integers(1, 6),  # m
        st.floats(0.5, 12.0),  # L
        penalties,
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def work_columns(draw, p):
    # small enough that the communication terms often set the cost
    return draw(
        st.lists(
            st.one_of(st.integers(0, 4), st.floats(0.0, 4.0)),
            min_size=p,
            max_size=p,
        )
    )


@st.composite
def message_supersteps(draw):
    """A message superstep in which no processor injects two flits in one
    slot (the BSP(m) rule): each sender's messages occupy disjoint
    consecutive slot runs separated by random gaps."""
    p = draw(st.integers(1, 6))
    work = draw(work_columns(p))
    max_gap = draw(st.integers(0, 2))
    msgs = draw(
        st.lists(
            st.tuples(
                st.integers(0, p - 1),  # src
                st.integers(0, p - 1),  # dest
                st.integers(1, 3),  # size (flits)
                st.integers(0, max_gap),  # idle slots before it
            ),
            max_size=12,
        )
    )
    next_free = [0] * p
    cols = []  # (src, dest, size, first slot) in sender order
    for src, dest, size, gap in sorted(msgs, key=lambda msg: msg[0]):
        slot = next_free[src] + gap
        next_free[src] = slot + size
        cols.append((src, dest, size, slot))
    src, dest, size, slot = (np.array([c[i] for c in cols], dtype=_I64) for i in range(4))
    record = SuperstepRecord(
        index=0,
        work=work,
        msg_batch=MessageBatch(src, dest, size, slot, np.ones(len(cols), dtype=bool)),
        read_batch=RequestBatch.empty(),
        write_batch=RequestBatch.empty(),
    )
    return p, record, cols


@st.composite
def request_supersteps(draw):
    """A QSM phase: reads and writes touch disjoint address ranges (a
    location may not be both read and written) and no processor issues two
    requests in one slot (the QSM(m) rule)."""
    p = draw(st.integers(1, 6))
    work = draw(work_columns(p))
    # few addresses and few requests per processor, so that contention
    # often sets the cost
    n_addr = draw(st.integers(1, 5))
    per_proc = draw(st.integers(1, 3))
    max_gap = draw(st.integers(0, 2))
    per_pid = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),  # write?
                    st.integers(0, n_addr - 1),  # address within its range
                    st.integers(0, max_gap),  # idle slots before it
                ),
                max_size=per_proc,
            ),
            min_size=p,
            max_size=p,
        )
    )
    cols = {False: ([], [], []), True: ([], [], [])}
    for pid, reqs in enumerate(per_pid):
        slot = 0
        for is_write, addr, gap in reqs:
            slot += gap
            pids, addrs, slots = cols[is_write]
            pids.append(pid)
            addrs.append(addr + (8 if is_write else 0))
            slots.append(slot)
            slot += 1

    def batch(is_write):
        pids, addrs, slots = cols[is_write]
        value = np.zeros(len(pids), dtype=_I64) if is_write else None
        return RequestBatch(
            np.array(pids, dtype=_I64),
            np.array(addrs, dtype=_I64),
            np.array(slots, dtype=_I64),
            value,
        )

    record = SuperstepRecord(
        index=0,
        work=work,
        msg_batch=MessageBatch.empty(),
        read_batch=batch(False),
        write_batch=batch(True),
    )
    return p, record, cols


def _c_m(counts, m, penalty):
    return float(np.sum(np.maximum(slot_charges(counts, m, penalty), 1.0)))


def _message_structure(p, work, cols):
    """``(w, h, n, histogram)`` re-derived from the drawn columns."""
    sent = np.zeros(p, dtype=_I64)
    recv = np.zeros(p, dtype=_I64)
    flit_slots = []
    for src, dest, size, slot in cols:
        sent[src] += size
        recv[dest] += size
        flit_slots.extend(range(slot, slot + size))
    h = int(max(sent.max(), recv.max()))
    counts = np.bincount(np.array(flit_slots, dtype=_I64))
    return max(work), h, int(sent.sum()), counts


def _request_structure(work, cols):
    """``(w, h, kappa, histogram)`` re-derived from the drawn columns."""
    h = kappa = 0
    slots = []
    for pids, addrs, req_slots in cols.values():
        if pids:
            h = max(h, int(np.bincount(pids).max()))
            kappa = max(kappa, int(np.unique(addrs, return_counts=True)[1].max()))
        slots.extend(req_slots)
    return max(work), max(1, h), kappa, np.bincount(np.array(slots, dtype=_I64))


def _priced(machines, record):
    """Every trial's ``_price_batch`` row, checked against ``_price`` at B=1."""
    rows = machines[0]._price_batch(record, machines)
    assert len(rows) == len(machines)
    for mach, (cost, breakdown, stats) in zip(machines, rows):
        alone = mach._price(record)
        assert alone[0] == cost
        assert alone[1] == breakdown
        assert list(alone[2].items()) == list(stats.items())
    return rows


def _check_c_m(stats, counts, m, pen):
    assert stats["c_m"] == _c_m(counts, m, pen)
    assert stats["c_m_paper"] == superstep_charge(counts, m, pen)


@settings(max_examples=300, deadline=None)
@given(message_supersteps(), trials)
def test_bsp_models_match_costs_oracle(drawn, params):
    p, record, cols = drawn
    w, h, n, counts = _message_structure(p, record.work, cols)

    bsp_g = [BSPg(MachineParams(p=p, g=g, L=L)) for g, _, L, _ in params]
    for (g, _, L, _), (cost, _, _) in zip(params, _priced(bsp_g, record)):
        assert cost == bsp_g_cost(w, h, g, L)

    bsp_m = [
        BSPm(MachineParams(p=p, m=m, L=L), penalty=pen) for _, m, L, pen in params
    ]
    for (_, m, L, pen), (cost, _, stats) in zip(params, _priced(bsp_m, record)):
        assert cost == bsp_m_cost(w, h, _c_m(counts, m, pen), L)
        _check_c_m(stats, counts, m, pen)

    selfs = [SelfSchedulingBSPm(MachineParams(p=p, m=m, L=L)) for _, m, L, _ in params]
    for (_, m, L, _), (cost, _, _) in zip(params, _priced(selfs, record)):
        assert cost == self_scheduling_cost(w, h, n, m, L)


@settings(max_examples=300, deadline=None)
@given(request_supersteps(), trials)
def test_qsm_models_match_costs_oracle(drawn, params):
    p, record, cols = drawn
    w, h, kappa, counts = _request_structure(record.work, cols)

    qsm_g = [QSMg(MachineParams(p=p, g=g)) for g, _, _, _ in params]
    for (g, _, _, _), (cost, _, _) in zip(params, _priced(qsm_g, record)):
        assert cost == qsm_g_cost(w, h, g, kappa)

    qsm_m = [QSMm(MachineParams(p=p, m=m), penalty=pen) for _, m, _, pen in params]
    for (_, m, _, pen), (cost, _, stats) in zip(params, _priced(qsm_m, record)):
        assert cost == qsm_m_cost(w, h, kappa, _c_m(counts, m, pen))
        _check_c_m(stats, counts, m, pen)
