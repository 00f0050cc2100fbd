"""Frozen scalar baselines for the vectorized algorithm programs.

The algorithm layer (`sorting`, `sample_sort`, `list_ranking`,
`one_to_all`, `qsm_on_bsp`, `prefix`) is written in the engine's
columnar idiom — ``send_many`` / ``read_many`` / ``write_many`` with
explicit slot arrays and ``ctx.receive().payloads`` on the receive side.
The porting contract is *bit-identical model times*: a batch program and
the scalar per-key loop it replaced must produce the same
``RunResult.time``, per-superstep costs and stats, message/flit totals,
and program results on every machine model.

This module keeps the scalar originals alive, verbatim, as the reference
side of that contract (``tests/test_algorithm_vectorization.py``) and as
the "seed" side of the end-to-end speedup benchmark
(``benchmarks/bench_algorithms_e2e.py``).  They are *frozen*: do not
optimize them — their entire value is that they still issue one engine
call per key.
"""

from __future__ import annotations

import math
import random as _random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.qsm_on_bsp import SharedMemoryProxy, _owner
from repro.algorithms.sorting import _NEG, _POS, local_sort_work
from repro.core.engine import Machine, RunResult
from repro.util.intmath import ceil_div, ilog2, tree_rounds
from repro.util.rng import SeedLike, as_generator

__all__ = [
    "one_to_all_bsp_scalar",
    "one_to_all_qsm_scalar",
    "columnsort_bsp_scalar",
    "columnsort_qsm_scalar",
    "contraction_scalar",
    "emulation_scalar",
    "run_qsm_on_bsp_scalar",
    "sample_sort_scalar_program",
    "sample_sort_scalar",
    "reduce_tree_bsp_scalar",
    "reduce_funnel_bsp_scalar",
    "reduce_tree_qsm_scalar",
    "reduce_funnel_qsm_scalar",
]

NIL = -1


# ----------------------------------------------------------------------
# one_to_all (Table 1, row 1)
# ----------------------------------------------------------------------


def one_to_all_bsp_scalar(ctx, payloads: Sequence[Any], root: int):
    if ctx.pid == root:
        k = 0
        for dest in range(ctx.nprocs):
            if dest == root:
                continue
            ctx.send(dest, payloads[dest], slot=k)
            k += 1
    yield
    if ctx.pid == root:
        return payloads[root]
    msgs = ctx.receive()
    return msgs[0].payload if msgs else None


def one_to_all_qsm_scalar(ctx, payloads: Sequence[Any], root: int):
    if ctx.pid == root:
        k = 0
        for dest in range(ctx.nprocs):
            if dest == root:
                continue
            ctx.write(("o2a", dest), payloads[dest], slot=k)
            k += 1
    yield
    handle = None
    if ctx.pid != root:
        handle = ctx.read(("o2a", ctx.pid), slot=ctx.stagger_slot())
    yield
    if ctx.pid == root:
        return payloads[root]
    return handle.value if handle is not None else None


# ----------------------------------------------------------------------
# columnsort (Table 1, row 5)
# ----------------------------------------------------------------------


def columnsort_bsp_scalar(ctx, n: int, r: int, s: int, m_cap: int, per: int, chunk: List[float]):
    pid, p = ctx.pid, ctx.nprocs
    groups = ceil_div(p, m_cap)

    offset = pid * per
    for k, key in enumerate(chunk):
        g = offset + k
        ctx.send(g // r, (g % r, float(key)), slot=k * groups + pid // m_cap)
    yield

    col = np.full(r, _POS)
    if pid < s:
        for msg in ctx.receive():
            row, key = msg.payload
            col[row] = key
    elif pid == s:
        ctx.receive()

    def sortcol():
        nonlocal col
        col = np.sort(col)
        ctx.work(local_sort_work(r))

    def permute(dest_cols: np.ndarray, dest_rows: np.ndarray):
        for k in range(r):
            ctx.send(int(dest_cols[k]), (int(dest_rows[k]), float(col[k])), slot=k)

    rows = np.arange(r)

    # ---- step 1 + 2 ----
    if pid < s:
        sortcol()
        kidx = pid * r + rows
        dc, dr = kidx % s, kidx // s
        permute(dc, dr)
    yield
    if pid < s:
        newcol = np.full(r, _POS)
        for msg in ctx.receive():
            row, key = msg.payload
            newcol[row] = key
        col = newcol

    # ---- step 3 + 4 ----
    if pid < s:
        sortcol()
        k2 = rows * s + pid
        dc, dr = k2 // r, k2 % r
        permute(dc, dr)
    yield
    if pid < s:
        newcol = np.full(r, _POS)
        for msg in ctx.receive():
            row, key = msg.payload
            newcol[row] = key
        col = newcol

    # ---- step 5 + 6 (shift into s+1 columns) ----
    shift = r // 2
    if pid < s:
        sortcol()
        kidx = pid * r + rows + shift
        dc, dr = kidx // r, kidx % r
        permute(dc, dr)
    yield
    if pid <= s:
        newcol = np.full(r, _POS if pid else _NEG)
        if pid == 0:
            newcol[shift:] = _POS
            newcol[:shift] = _NEG
        for msg in ctx.receive():
            row, key = msg.payload
            newcol[row] = key
        col = newcol

    # ---- step 7 + 8 (unshift) ----
    if pid <= s:
        sortcol()
        kidx = pid * r + rows - shift
        valid = (kidx >= 0) & (kidx < r * s)
        for k in range(r):
            if valid[k]:
                ctx.send(int(kidx[k] // r), (int(kidx[k] % r), float(col[k])), slot=k)
    yield
    sorted_col = None
    if pid < s:
        newcol = np.full(r, _POS)
        for msg in ctx.receive():
            row, key = msg.payload
            newcol[row] = key
        sorted_col = newcol

    # ---- collect ----
    per_proc = ceil_div(n, p)
    if pid < s:
        for k in range(r):
            g = pid * r + k
            if g < n:
                ctx.send(g // per_proc, (g % per_proc, float(sorted_col[k])), slot=k)
    yield
    mine = [None] * per_proc
    for msg in ctx.receive():
        idx, key = msg.payload
        mine[idx] = key
    return [x for x in mine if x is not None]


def columnsort_qsm_scalar(ctx, n: int, r: int, s: int, m_cap: int, per: int, chunk: List[float]):
    pid, p = ctx.pid, ctx.nprocs
    groups = ceil_div(p, m_cap)

    offset = pid * per
    for k, key in enumerate(chunk):
        g = offset + k
        ctx.write(("cs", 0, g // r, g % r), float(key), slot=k * groups + pid // m_cap)
    yield

    def read_column(step: int):
        return [ctx.read(("cs", step, pid, row), slot=row) for row in range(r)]

    col = np.full(r, _POS)
    handles = read_column(0) if pid < s else []
    yield
    if pid < s:
        for row, h in enumerate(handles):
            if h.value is not None:
                col[row] = h.value

    rows = np.arange(r)

    def sortcol():
        nonlocal col
        col = np.sort(col)
        ctx.work(local_sort_work(r))

    def write_perm(step: int, dest_cols, dest_rows, valid=None):
        for k in range(r):
            if valid is not None and not valid[k]:
                continue
            ctx.write(
                ("cs", step, int(dest_cols[k]), int(dest_rows[k])),
                float(col[k]),
                slot=k,
            )

    # ---- step 1 + 2 (transpose) ----
    if pid < s:
        sortcol()
        kidx = pid * r + rows
        write_perm(2, kidx % s, kidx // s)
    yield
    handles = read_column(2) if pid < s else []
    yield
    if pid < s:
        col = np.full(r, _POS)
        for row, h in enumerate(handles):
            if h.value is not None:
                col[row] = h.value

    # ---- step 3 + 4 (untranspose) ----
    if pid < s:
        sortcol()
        k2 = rows * s + pid
        write_perm(4, k2 // r, k2 % r)
    yield
    handles = read_column(4) if pid < s else []
    yield
    if pid < s:
        col = np.full(r, _POS)
        for row, h in enumerate(handles):
            if h.value is not None:
                col[row] = h.value

    # ---- step 5 + 6 (shift into s+1 columns) ----
    shift = r // 2
    if pid < s:
        sortcol()
        kidx = pid * r + rows + shift
        write_perm(6, kidx // r, kidx % r)
    yield
    handles = read_column(6) if pid <= s else []
    yield
    if pid <= s:
        col = np.full(r, _POS if pid else _NEG)
        if pid == 0:
            col[shift:] = _POS
            col[:shift] = _NEG
        for row, h in enumerate(handles):
            if h.value is not None:
                col[row] = h.value

    # ---- step 7 + 8 (unshift) ----
    if pid <= s:
        sortcol()
        kidx = pid * r + rows - shift
        valid = (kidx >= 0) & (kidx < r * s)
        write_perm(8, np.where(valid, kidx // r, 0), np.where(valid, kidx % r, 0), valid)
    yield
    handles = read_column(8) if pid < s else []
    yield
    sorted_col = None
    if pid < s:
        sorted_col = np.full(r, _POS)
        for row, h in enumerate(handles):
            if h.value is not None:
                sorted_col[row] = h.value

    # ---- collect ----
    per_proc = ceil_div(n, p)
    if pid < s:
        slot = 0
        for k in range(r):
            g = pid * r + k
            if g < n:
                ctx.write(("out", g // per_proc, g % per_proc), float(sorted_col[k]), slot=slot)
                slot += 1
    yield
    out_handles = [
        ctx.read(("out", pid, j), slot=ctx.stagger_slot())
        for j in range(per_proc)
        if pid * per_proc + j < n
    ]
    yield
    return [h.value for h in out_handles if h.value is not None]


# ----------------------------------------------------------------------
# list-ranking contraction (Table 1, row 4)
# ----------------------------------------------------------------------


def contraction_scalar(ctx, a: int, max_rounds: int, nodes: Dict[int, int], seed: int):
    pid = ctx.pid
    if pid >= a:
        for _ in range(2 * max_rounds + 1 + max_rounds + 1):
            yield
        return {}

    rng = _random.Random(seed)
    owner = lambda v: v % a  # noqa: E731
    succ = dict(nodes)
    weight = {u: (0 if s == NIL else 1) for u, s in succ.items()}
    alive = set(succ)
    spliced_at: Dict[int, List[Tuple[int, int, int]]] = {}
    splice_round_of: Dict[int, int] = {}

    slot = 0

    def stag() -> int:
        nonlocal slot
        s = slot
        slot += 1
        return s

    for rnd in range(max_rounds):
        slot = 0
        coins = {u: rng.random() < 0.5 for u in sorted(alive)}
        for u in sorted(alive):
            if succ[u] != NIL:
                ctx.send(owner(succ[u]), ("c", u, succ[u], coins[u]), slot=stag())
                ctx.work(1)
        yield
        slot = 0
        grants = []
        for msg in ctx.receive():
            _tag, u, v, coin_u = msg.payload
            if v in alive:
                if coin_u and not coins[v]:
                    grants.append((v, u))
        for v, u in grants:
            ctx.send(owner(u), ("s", v, u, succ[v], weight[v]), slot=stag())
            ctx.work(1)
            alive.discard(v)
            splice_round_of[v] = rnd
        yield
        for msg in ctx.receive():
            _tag, v, u, sv, wv = msg.payload
            spliced_at.setdefault(rnd, []).append((u, v, weight[u]))
            weight[u] += wv
            succ[u] = sv
            ctx.work(1)

    ranks: Dict[int, int] = {}
    leftovers = [u for u in alive if succ[u] != NIL]
    for u in alive:
        if succ[u] == NIL:
            ranks[u] = weight[u]
    yield

    for rnd in range(max_rounds - 1, -1, -1):
        slot = 0
        for (u, v, w_before) in spliced_at.get(rnd, ()):
            if u in ranks:
                ctx.send(owner(v), ("f", v, ranks[u] - w_before), slot=stag())
                ctx.work(1)
        yield
        for msg in ctx.receive():
            _tag, v, rank_v = msg.payload
            ranks[v] = rank_v

    return {"ranks": ranks, "unfinished": leftovers}


# ----------------------------------------------------------------------
# QSM-on-BSP emulation (Section 4 mapping)
# ----------------------------------------------------------------------


def emulation_scalar(ctx, qsm_program: Callable, extra_args: tuple, proc_extra: tuple = ()):
    proxy = SharedMemoryProxy(ctx)
    gen = qsm_program(proxy, *extra_args, *proc_extra)
    if not hasattr(gen, "__next__"):
        return gen
    result = None
    cells: Dict[Any, Any] = {}

    while True:
        try:
            next(gen)
            finished = False
        except StopIteration as stop:
            result = stop.value
            finished = True

        reads, proxy._reads = proxy._reads, []
        writes, proxy._writes = proxy._writes, []

        for i, handle in enumerate(reads):
            ctx.send(
                _owner(handle.addr, ctx.nprocs),
                ("r", ctx.pid, i, handle.addr),
                slot=ctx.stagger_slot(),
            )
        for addr, value in writes:
            ctx.send(
                _owner(addr, ctx.nprocs),
                ("w", ctx.pid, addr, value),
                slot=ctx.stagger_slot(),
            )
        yield

        msgs = ctx.receive()
        read_reqs = [m.payload for m in msgs if m.payload[0] == "r"]
        write_reqs = [m.payload for m in msgs if m.payload[0] == "w"]
        for _tag, requester, idx, addr in read_reqs:
            ctx.send(requester, ("v", idx, cells.get(addr)), slot=ctx.stagger_slot())
        for _tag, _writer, addr, value in write_reqs:
            cells[addr] = value
        yield

        for msg in ctx.receive():
            _tag, idx, value = msg.payload
            reads[idx]._value = value
            reads[idx]._set = True

        if finished:
            return result


def run_qsm_on_bsp_scalar(
    machine: Machine,
    qsm_program: Callable,
    *,
    args: tuple = (),
    per_proc_args: Optional[Sequence[tuple]] = None,
) -> RunResult:
    """Scalar twin of :func:`repro.algorithms.qsm_on_bsp.run_qsm_program_on_bsp`."""
    if machine.uses_shared_memory:
        raise ValueError("the emulation targets message-passing machines")
    wrapped = (
        [(tuple(pp) if isinstance(pp, tuple) else (pp,),) for pp in per_proc_args]
        if per_proc_args is not None
        else None
    )
    return machine.run(
        emulation_scalar,
        args=(qsm_program, args),
        per_proc_args=wrapped,
    )


# ----------------------------------------------------------------------
# reductions (Table 1, row 3 skeleton: summation / parity)
# ----------------------------------------------------------------------


def reduce_tree_bsp_scalar(ctx, op, b: int, value: Any):
    """Scalar twin of :func:`repro.algorithms.prefix.reduce_tree_bsp_program`."""
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
            for msg in ctx.receive():
                acc = op(acc, msg.payload)
                ctx.work(1)
        stride = block
    return acc if pid == 0 else None


def reduce_funnel_bsp_scalar(ctx, op, a: int, b: int, value: Any):
    """Scalar twin of :func:`repro.algorithms.prefix.reduce_funnel_bsp_program`."""
    pid, p = ctx.pid, ctx.nprocs
    if pid >= a:
        ctx.send(pid % a, value, slot=pid // a - 1)
    yield
    acc = value
    if pid < a:
        for msg in ctx.receive():
            acc = op(acc, msg.payload)
            ctx.work(1)
    stride = 1
    for _ in range(tree_rounds(a, b)):
        block = stride * b
        if pid < a and pid % stride == 0 and pid % block != 0:
            ctx.send(pid - pid % block, acc, slot=0)
        yield
        if pid < a and pid % block == 0:
            for msg in ctx.receive():
                acc = op(acc, msg.payload)
                ctx.work(1)
        stride = block
    return acc if pid == 0 else None


def reduce_tree_qsm_scalar(ctx, op, b: int, value: Any):
    """Scalar twin of :func:`repro.algorithms.prefix.reduce_tree_qsm_program`."""
    pid, p = ctx.pid, ctx.nprocs
    acc = value
    ctx.work(1)
    stride = 1
    for r in range(tree_rounds(p, b)):
        block = stride * b
        if pid % stride == 0 and pid % block != 0:
            ctx.write(("red", r, pid), acc, slot=ctx.stagger_slot())
        yield
        handles = []
        if pid % block == 0:
            for child in range(pid + stride, min(pid + block, p), stride):
                handles.append(ctx.read(("red", r, child), slot=ctx.stagger_slot()))
        yield
        for h in handles:
            if h.value is not None:
                acc = op(acc, h.value)
                ctx.work(1)
        stride = block
    return acc if pid == 0 else None


def reduce_funnel_qsm_scalar(ctx, op, a: int, b: int, value: Any):
    """Scalar twin of :func:`repro.algorithms.prefix.reduce_funnel_qsm_program`."""
    pid, p = ctx.pid, ctx.nprocs
    if pid >= a:
        ctx.write(("fun", pid), value, slot=pid // a - 1)
    yield
    handles = []
    if pid < a:
        for k, member in enumerate(range(pid + a, p, a)):
            handles.append(ctx.read(("fun", member), slot=k))
    yield
    acc = value
    for h in handles:
        if h.value is not None:
            acc = op(acc, h.value)
            ctx.work(1)
    stride = 1
    for r in range(tree_rounds(a, b)):
        block = stride * b
        if pid < a and pid % stride == 0 and pid % block != 0:
            ctx.write(("redm", r, pid), acc, slot=0)
        yield
        handles = []
        if pid < a and pid % block == 0:
            for j, child in enumerate(range(pid + stride, min(pid + block, a), stride)):
                handles.append(ctx.read(("redm", r, child), slot=j))
        yield
        for h in handles:
            if h.value is not None:
                acc = op(acc, h.value)
                ctx.work(1)
        stride = block
    return acc if pid == 0 else None


# ----------------------------------------------------------------------
# sample sort (hand-derived scalar form of the columnar program)
# ----------------------------------------------------------------------


def sample_sort_scalar_program(
    ctx, n: int, k: int, s: int, per: int, m_cap: int, chunk, seed: int
):
    """Per-key scalar twin of ``_sample_sort_program`` — slot for slot: the
    ``i``-th staggered send uses ``i * ceil(p/m_cap) + pid // m_cap``, the
    splitter broadcast to ``dest`` uses ``dest * sz`` with ``size=sz``, and
    the sorter-only phases use plain slot ``i``."""
    pid, p = ctx.pid, ctx.nprocs
    groups = ceil_div(p, m_cap)
    base = pid // m_cap

    # ---- phase 1: local sort + samples to processor 0 ----
    local = np.sort(np.asarray(chunk, dtype=np.float64))
    ctx.work(local_sort_work(local.size))
    if local.size:
        idx = np.linspace(0, local.size - 1, num=min(s, local.size)).astype(int)
        samples = local[np.unique(idx)]
        for i in range(samples.size):
            ctx.send(0, samples[i], slot=i * groups + base)
    yield

    # ---- phase 2: processor 0 picks and broadcasts splitters ----
    if pid == 0:
        samples = np.sort(
            np.asarray([m.payload for m in ctx.receive()], dtype=np.float64)
        )
        ctx.work(local_sort_work(samples.size))
        if samples.size and k > 1:
            step = samples.size / k
            pick = np.minimum(
                samples.size - 1, (np.arange(1, k) * step).astype(np.int64)
            )
            splitters = samples[pick]
        else:
            splitters = np.zeros(0)
        sz = max(1, k - 1)
        for dest in range(p):
            ctx.send(dest, splitters, size=sz, slot=dest * sz)
    yield
    inbox = ctx.receive()
    splitters = (
        np.asarray(inbox[0].payload, dtype=np.float64) if len(inbox) else np.zeros(0)
    )

    # ---- phase 3: route keys to bucket sorters ----
    if local.size:
        buckets = np.searchsorted(splitters, local, side="right").astype(np.int64)
        ctx.work(local.size * max(1.0, math.log2(max(2, k))))
        for i in range(local.size):
            ctx.send(int(buckets[i]), local[i], slot=i * groups + base)
    yield
    mine = np.sort(np.asarray([m.payload for m in ctx.receive()], dtype=np.float64))
    ctx.work(local_sort_work(mine.size))

    # ---- phase 4: bucket sizes to processor 0 ----
    if pid < k:
        ctx.send(0, (pid, int(mine.size)), slot=base)
    yield
    if pid == 0:
        sizes = [0] * k
        for msg in ctx.receive():
            bucket, count = msg.payload
            sizes[bucket] = count
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        for i in range(k):
            ctx.send(i, offsets[i], slot=i)
    yield
    inbox = ctx.receive()
    offset = int(inbox[0].payload) if len(inbox) else 0

    # ---- phase 6: route to final owners ----
    if pid < k and mine.size:
        g = offset + np.arange(mine.size, dtype=np.int64)
        dest = g // per
        for i in range(mine.size):
            ctx.send(int(dest[i]), mine[i], slot=i)
    yield
    final = np.sort(np.asarray([m.payload for m in ctx.receive()], dtype=np.float64))
    return final.tolist()


def sample_sort_scalar(
    machine: Machine,
    keys,
    sorters: Optional[int] = None,
    oversample: Optional[int] = None,
    seed: SeedLike = None,
) -> Tuple[RunResult, np.ndarray]:
    """Scalar twin of :func:`repro.algorithms.sample_sort.sample_sort` —
    same host-side setup, per-key engine calls."""
    if machine.uses_shared_memory:
        raise ValueError("sample_sort targets message-passing machines")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.size and not np.all(np.isfinite(keys)):
        raise ValueError("keys must be finite")
    n = keys.size
    p = machine.params.p
    m = machine.params.m
    if n == 0:
        res = machine.run(lambda ctx: [])
        return res, np.zeros(0)
    k = sorters if sorters is not None else (min(p, m) if m is not None else p)
    k = max(1, min(k, p))
    s = oversample if oversample is not None else (ilog2(max(2, n)) + 2)
    per = ceil_div(n, p)
    chunks = [keys[i * per : (i + 1) * per] for i in range(p)]
    rng = as_generator(seed)
    res = machine.run(
        sample_sort_scalar_program,
        args=(n, k, s, per, m if m is not None else p, ),
        per_proc_args=[(c, int(rng.integers(0, 2**62))) for c in chunks],
    )
    out: List[float] = []
    for block in res.results:
        if block:
            out.extend(block)
    return res, np.asarray(out, dtype=np.float64)
