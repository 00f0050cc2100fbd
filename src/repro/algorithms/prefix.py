"""Summation, parity and prefix sums — Table 1, row 3.

``n = p`` input values, one per processor; the goal is the total (or XOR
for parity) at every processor, or all prefix sums.

* Globally limited (QSM(m)/BSP(m)): funnel the inputs onto ``a = min(p, m)``
  aggregators at full aggregate bandwidth (``n/m`` time), locally combine,
  then tree-reduce the ``a`` partial results (``lg m`` rounds, unit cost on
  QSM(m), ``L`` per round on BSP(m)).  Time ``Θ(lg m + n/m)`` /
  ``O(L lg m / lg L + n/m + L)``.
* Locally limited: a ``b``-ary reduction tree over all ``p`` processors;
  each round costs ``max(g(b-1), L)``.  The matching lower bound is the
  Beame–Håstad CRCW bound times ``g`` (Section 4.1):
  ``Ω(g lg n / lg lg n)`` on QSM(g).

The same skeleton computes any associative/commutative ``op``; prefix sums
add a downsweep carrying left-context.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import Machine, RunResult
from repro.models.bsp_m import BSPm
from repro.models.qsm_m import QSMm
from repro.models.self_scheduling import SelfSchedulingBSPm
from repro.util.intmath import tree_rounds

__all__ = [
    "reduce_all",
    "summation",
    "parity",
    "prefix_sums",
    "reduce_tree_bsp_program",
    "reduce_funnel_bsp_program",
    "reduce_tree_qsm_program",
    "reduce_funnel_qsm_program",
]

Op = Callable[[Any, Any], Any]


def _default_branching(machine: Machine) -> int:
    params = machine.params
    if isinstance(machine, (BSPm, SelfSchedulingBSPm, QSMm)):
        return max(2, int(params.L)) if not machine.uses_shared_memory else 2
    if machine.uses_shared_memory:
        # Unlike broadcast (where concurrent reads make wide trees cheap),
        # a reduce parent pays g per child read, so binary is optimal.
        return 2
    return max(2, int(params.L / params.g) + 1)


# ----------------------------------------------------------------------
# BSP programs
# ----------------------------------------------------------------------


def reduce_tree_bsp_program(ctx, op: Op, b: int, value: Any):
    """``b``-ary reduction tree over all processors; result at processor 0."""
    pid, p = ctx.pid, ctx.nprocs
    acc = value
    ctx.work(1)
    stride = 1
    for _ in range(tree_rounds(p, b)):
        block = stride * b
        if pid % stride == 0 and pid % block != 0:
            ctx.send(pid - pid % block, acc, slot=0)
        yield
        if pid % block == 0:
            for payload in ctx.receive().payloads:
                acc = op(acc, payload)
                ctx.work(1)
        stride = block
    return acc if pid == 0 else None


def reduce_funnel_bsp_program(ctx, op: Op, a: int, b: int, value: Any):
    """Funnel to ``a`` aggregators at full bandwidth, then tree-reduce."""
    pid, p = ctx.pid, ctx.nprocs
    if pid >= a:
        ctx.send(pid % a, value, slot=pid // a - 1)
    yield
    acc = value
    if pid < a:
        for payload in ctx.receive().payloads:
            acc = op(acc, payload)
            ctx.work(1)
    stride = 1
    for _ in range(tree_rounds(a, b)):
        block = stride * b
        if pid < a and pid % stride == 0 and pid % block != 0:
            ctx.send(pid - pid % block, acc, slot=0)
        yield
        if pid < a and pid % block == 0:
            for payload in ctx.receive().payloads:
                acc = op(acc, payload)
                ctx.work(1)
        stride = block
    return acc if pid == 0 else None


# ----------------------------------------------------------------------
# QSM programs
# ----------------------------------------------------------------------


def reduce_tree_qsm_program(ctx, op: Op, b: int, value: Any):
    """Reduction tree over shared memory: children publish, parent reads.

    A parent pulls all ``b - 1`` children's cells with one ``read_many``
    per round (``stagger_slots`` advances the same per-superstep counter as
    ``b - 1`` scalar staggered reads, so the slot columns — and therefore
    model times — are unchanged)."""
    pid, p = ctx.pid, ctx.nprocs
    acc = value
    ctx.work(1)
    stride = 1
    for r in range(tree_rounds(p, b)):
        block = stride * b
        if pid % stride == 0 and pid % block != 0:
            ctx.write(("red", r, pid), acc, slot=ctx.stagger_slot())
        yield
        handle = None
        if pid % block == 0:
            addrs = [
                ("red", r, child)
                for child in range(pid + stride, min(pid + block, p), stride)
            ]
            if addrs:
                handle = ctx.read_many(addrs, slots=ctx.stagger_slots(len(addrs)))
        yield
        if handle is not None:
            for v in handle.values:
                if v is not None:
                    acc = op(acc, v)
                    ctx.work(1)
        stride = block
    return acc if pid == 0 else None


def reduce_funnel_qsm_program(ctx, op: Op, a: int, b: int, value: Any):
    """Funnel onto ``a`` aggregators through shared memory, then tree.

    Slot discipline: the ``p - a`` writers share slots ``pid//a - 1`` (at
    most ``a <= m`` per slot); each aggregator reads its ``k``-th member's
    cell at slot ``k`` (at most ``a`` concurrent readers per slot).
    """
    pid, p = ctx.pid, ctx.nprocs
    if pid >= a:
        ctx.write(("fun", pid), value, slot=pid // a - 1)
    yield
    handle = None
    if pid < a:
        addrs = [("fun", member) for member in range(pid + a, p, a)]
        if addrs:
            handle = ctx.read_many(
                addrs, slots=np.arange(len(addrs), dtype=np.int64)
            )
    yield
    acc = value
    if handle is not None:
        for v in handle.values:
            if v is not None:
                acc = op(acc, v)
                ctx.work(1)
    stride = 1
    for r in range(tree_rounds(a, b)):
        block = stride * b
        if pid < a and pid % stride == 0 and pid % block != 0:
            ctx.write(("redm", r, pid), acc, slot=0)
        yield
        handle = None
        if pid < a and pid % block == 0:
            addrs = [
                ("redm", r, child)
                for child in range(pid + stride, min(pid + block, a), stride)
            ]
            if addrs:
                handle = ctx.read_many(
                    addrs, slots=np.arange(len(addrs), dtype=np.int64)
                )
        yield
        if handle is not None:
            for v in handle.values:
                if v is not None:
                    acc = op(acc, v)
                    ctx.work(1)
        stride = block
    return acc if pid == 0 else None


# ----------------------------------------------------------------------
# Dispatch and wrappers
# ----------------------------------------------------------------------


def reduce_all(
    machine: Machine,
    values: Sequence[Any],
    op: Op = operator.add,
    branching: Optional[int] = None,
) -> Tuple[RunResult, Any]:
    """Reduce one value per processor with ``op``; result at processor 0.

    Returns ``(run_result, reduced_value)``.
    """
    p = machine.params.p
    if len(values) != p:
        raise ValueError(f"{len(values)} values for {p} processors")
    b = branching if branching is not None else _default_branching(machine)
    m = machine.params.m
    per_proc = [(v,) for v in values]
    if machine.uses_shared_memory:
        if m is not None:
            a = min(p, m)
            res = machine.run(
                reduce_funnel_qsm_program, args=(op, a, b), per_proc_args=per_proc
            )
        else:
            res = machine.run(reduce_tree_qsm_program, args=(op, b), per_proc_args=per_proc)
    else:
        if m is not None:
            a = min(p, m)
            res = machine.run(
                reduce_funnel_bsp_program, args=(op, a, b), per_proc_args=per_proc
            )
        else:
            res = machine.run(reduce_tree_bsp_program, args=(op, b), per_proc_args=per_proc)
    return res, res.results[0]


def summation(machine: Machine, values: Sequence[float], branching: Optional[int] = None):
    """Sum of one value per processor (Table 1 "Summation")."""
    return reduce_all(machine, values, operator.add, branching)


def parity(machine: Machine, bits: Sequence[int], branching: Optional[int] = None):
    """Parity (XOR) of one bit per processor (Table 1 "Parity")."""
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"parity input must be bits, got {bit!r}")
    return reduce_all(machine, bits, operator.xor, branching)


# ----------------------------------------------------------------------
# Prefix sums (binary up/down sweep; used by the Section 6 senders)
# ----------------------------------------------------------------------


def _prefix_bsp_program(ctx, op: Op, value: Any):
    """Inclusive prefix sums via binary up/down sweep (message passing).

    Each tree node (a processor at some stride level) remembers its *left*
    subtree total so the downsweep can hand the right child its carry.
    """
    pid, p = ctx.pid, ctx.nprocs
    rounds = tree_rounds(p, 2)
    subtotal = value
    ctx.work(1)
    left_totals: List[Any] = []  # my subtree total before absorbing right child
    m = ctx._machine.params.m
    cap = m if m is not None else p  # stagger senders m-per-slot on BSP(m)
    stride = 1
    for _ in range(rounds):
        if pid % (2 * stride) == stride:
            ctx.send(pid - stride, subtotal, slot=(pid // (2 * stride)) // cap)
        yield
        if pid % (2 * stride) == 0:
            msgs = ctx.receive()
            left_totals.append(subtotal)
            if msgs:
                subtotal = op(subtotal, msgs[0].payload)
                ctx.work(1)
        stride *= 2
    carry = None
    stride = 2 ** max(rounds - 1, 0)
    for _ in range(rounds):
        if pid % (2 * stride) == 0 and left_totals:
            my_left = left_totals.pop()
            right = pid + stride
            if right < p:
                right_carry = my_left if carry is None else op(carry, my_left)
                ctx.send(right, right_carry, slot=(pid // (2 * stride)) // cap)
                ctx.work(1)
        yield
        if pid % (2 * stride) == stride:
            msgs = ctx.receive()
            if msgs:
                carry = msgs[0].payload
        stride = max(1, stride // 2)
    ctx.work(1)
    return value if carry is None else op(carry, value)


def _prefix_qsm_program(ctx, op: Op, value: Any):
    """Inclusive prefix sums over shared memory: the same binary up/down
    sweep as the BSP program, with each message replaced by a write phase
    plus a read phase (cells keyed by level and receiver)."""
    pid, p = ctx.pid, ctx.nprocs
    rounds = tree_rounds(p, 2)
    subtotal = value
    ctx.work(1)
    left_totals: List[Any] = []
    stride = 1
    for lvl in range(rounds):
        if pid % (2 * stride) == stride:
            ctx.write(("px-up", lvl, pid - stride), subtotal, slot=ctx.stagger_slot())
        yield
        handle = None
        if pid % (2 * stride) == 0 and pid + stride < p:
            handle = ctx.read(("px-up", lvl, pid), slot=ctx.stagger_slot())
        yield
        if pid % (2 * stride) == 0:
            left_totals.append(subtotal)
            if handle is not None and handle.value is not None:
                subtotal = op(subtotal, handle.value)
                ctx.work(1)
        stride *= 2
    carry = None
    stride = 2 ** max(rounds - 1, 0)
    for lvl in range(rounds):
        if pid % (2 * stride) == 0 and left_totals:
            my_left = left_totals.pop()
            right = pid + stride
            if right < p:
                down = my_left if carry is None else op(carry, my_left)
                ctx.write(("px-dn", lvl, right), down, slot=ctx.stagger_slot())
                ctx.work(1)
        yield
        handle = None
        if pid % (2 * stride) == stride:
            handle = ctx.read(("px-dn", lvl, pid), slot=ctx.stagger_slot())
        yield
        if handle is not None and handle.value is not None:
            carry = handle.value
        stride = max(1, stride // 2)
    ctx.work(1)
    return value if carry is None else op(carry, value)


def prefix_sums(
    machine: Machine, values: Sequence[Any], op: Op = operator.add
) -> Tuple[RunResult, List[Any]]:
    """Inclusive prefix sums: processor ``i`` ends with
    ``op(values[0], ..., values[i])``.

    Works on both machine families: message-passing machines run the
    binary up/down sweep over point-to-point messages; shared-memory
    machines run the same sweep through per-level cells (two phases per
    round).  Time ``O(lg p)`` supersteps either way.
    """
    p = machine.params.p
    if len(values) != p:
        raise ValueError(f"{len(values)} values for {p} processors")
    program = (
        _prefix_qsm_program if machine.uses_shared_memory else _prefix_bsp_program
    )
    res = machine.run(program, args=(op,), per_proc_args=[(v,) for v in values])
    return res, list(res.results)
