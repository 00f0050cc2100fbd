"""Sorting — Table 1, row 5.

The paper sorts by routing the keys to a small set of processors and running
the Adler–Byers–Karp adaptation of Leighton's **columnsort**; when
``m = O(n^{1-eps})`` the time is within a constant of routing a balanced
permutation: ``Θ(n/m)`` on QSM(m), ``Θ(n/m + L)`` on BSP(m).

We implement columnsort itself, both as a host-side reference
(:func:`columnsort_reference`) and as an engine program
(:func:`columnsort`): ``s`` sorter processors each own one column of an
``r × s`` matrix (``r >= 2(s-1)^2``, ``s | r``); the eight steps alternate
local column sorts with fixed global permutations (transpose, untranspose,
shift, unshift), each permutation moving all ``n`` keys through the network
in ``n/s`` staggered slots.

**Substitution note** (recorded in DESIGN.md): the paper uses ``m lg n``
sorter processors with a recursive columnsort to absorb the local-sort
``lg`` factor and reach ``O(n/m)`` total; we use ``s = min(m, (n/2)^{1/3})``
columns and a single columnsort level, so the *communication* term is the
paper's ``Θ(n/m)`` exactly while local work carries an extra ``lg`` factor.
The benchmark separates the two components via the run's cost breakdown.

The locally-limited machine runs the *same program*; each permutation then
costs ``g·(n/s)`` instead of ``n/s`` — a clean ``Θ(g)`` separation on the
communication term.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import Machine, RunResult
from repro.util.intmath import ceil_div
from repro.util.validation import check_positive

__all__ = [
    "columnsort",
    "columnsort_reference",
    "choose_columns",
    "local_sort_work",
]

_NEG = -np.inf
_POS = np.inf


def local_sort_work(k: int) -> float:
    """Comparison-sort work charge ``k * max(1, lg k)``."""
    if k <= 0:
        return 0.0
    return k * max(1.0, math.log2(k))


def choose_columns(n: int, limit: Optional[int]) -> Tuple[int, int]:
    """Pick ``(r, s)`` for columnsort: the largest ``s <= limit`` with
    ``r = s * ceil(n / s^2)`` satisfying Leighton's ``r >= 2(s-1)^2``
    (``s | r`` holds by construction).  ``limit`` is ``m`` on a
    globally-limited machine."""
    check_positive("n", n)
    cap = limit if limit is not None else n
    s = max(1, min(cap, int(round((n / 2) ** (1.0 / 3.0)))))
    while s > 1:
        r = s * ceil_div(n, s * s)
        if r >= 2 * (s - 1) ** 2 and r * s >= n:
            return r, s
        s -= 1
    return n, 1


def _sort_columns(mat: np.ndarray) -> np.ndarray:
    return np.sort(mat, axis=0)


def columnsort_reference(keys: Sequence[float], r: int, s: int) -> np.ndarray:
    """Host-side columnsort over an ``r x s`` matrix (column-major layout).

    Requires ``r * s >= len(keys)``, ``s | r`` and ``r >= 2(s-1)^2``; pads
    with ``+inf`` and strips the pads from the sorted output.  Used as the
    oracle for the engine program and as a standalone PRAM-style reference.
    """
    keys = np.asarray(keys, dtype=np.float64)
    n = keys.size
    if r * s < n:
        raise ValueError(f"matrix {r}x{s} too small for {n} keys")
    if s > 1 and r % s != 0:
        raise ValueError(f"columnsort needs s | r, got r={r}, s={s}")
    if s > 1 and r < 2 * (s - 1) ** 2:
        raise ValueError(f"columnsort needs r >= 2(s-1)^2, got r={r}, s={s}")
    flat = np.concatenate([keys, np.full(r * s - n, _POS)])
    mat = flat.reshape(s, r).T  # column j = flat[j*r:(j+1)*r]

    mat = _sort_columns(mat)  # 1
    mat = mat.T.reshape(r, s)  # 2: read column-major, write row-major
    mat = _sort_columns(mat)  # 3
    mat = mat.reshape(s, r).T  # 4: inverse of 2
    mat = _sort_columns(mat)  # 5
    shift = r // 2
    flat6 = np.concatenate(
        [np.full(shift, _NEG), mat.T.ravel(), np.full(r - shift, _POS)]
    )  # 6: shift down by r/2 into s+1 columns
    mat7 = flat6.reshape(s + 1, r).T
    mat7 = _sort_columns(mat7)  # 7
    flat8 = mat7.T.ravel()[shift : shift + r * s]  # 8: unshift
    out = flat8[flat8 != _POS]
    if out.size != n:
        # keys may legitimately be +inf; fall back to length-based strip
        out = flat8[:n] if np.all(flat8[n:] == _POS) else flat8
    return out


# ----------------------------------------------------------------------
# Engine program
# ----------------------------------------------------------------------


def _columnsort_program(
    ctx, n: int, r: int, s: int, m_cap: int, per: int, chunk: Sequence[float]
):
    """SPMD columnsort: procs ``0..s-1`` own columns, proc ``s`` owns the
    shift-overflow column, everyone initially holds ``chunk`` of the input.

    Slot discipline: distribution is staggered ``p``-wide (slot =
    ``k*ceil(p/cap) + pid//cap``); the permutation steps have only
    ``s+1 <= cap`` senders, so the ``k``-th outgoing flit simply uses slot
    ``k``.

    Every permutation travels as one ``send_many`` whose payload column is
    a ``(count, 2)`` float array of ``(dest_row, key)`` pairs — the column
    stays array-backed through delivery, and receivers scatter it into
    their column with one fancy-indexed assignment.  Rows are exact in
    float64 (``r << 2**53``).
    """
    pid, p = ctx.pid, ctx.nprocs
    groups = ceil_div(p, m_cap)

    def send_pairs(dests: np.ndarray, dest_rows: np.ndarray, keys: np.ndarray,
                   slots: np.ndarray) -> None:
        if len(dests):
            ctx.send_many(
                dests,
                payloads=np.column_stack(
                    [np.asarray(dest_rows, dtype=np.float64),
                     np.asarray(keys, dtype=np.float64)]
                ),
                slots=slots,
            )

    def fill(base: np.ndarray) -> np.ndarray:
        pairs = ctx.receive().payloads
        if len(pairs):
            arr = np.asarray(pairs)
            base[arr[:, 0].astype(np.int64)] = arr[:, 1]
        return base

    # ---- distribute: global index -> column (index // r) ----
    offset = pid * per
    nc = len(chunk)
    if nc:
        g = offset + np.arange(nc, dtype=np.int64)
        send_pairs(
            g // r, g % r, np.asarray(chunk, dtype=np.float64),
            np.arange(nc, dtype=np.int64) * groups + pid // m_cap,
        )
    yield

    # only the s + 1 column owners hold a column
    if pid < s:
        col = fill(np.full(r, _POS))
    elif pid == s:
        ctx.receive()
    if pid <= s:
        rows = np.arange(r)

    def sortcol():
        nonlocal col
        col = np.sort(col)
        ctx.work(local_sort_work(r))

    def permute(dest_cols: np.ndarray, dest_rows: np.ndarray):
        send_pairs(dest_cols, dest_rows, col, rows)

    # ---- step 1 + 2 ----
    if pid < s:
        sortcol()
        kidx = pid * r + rows  # column-major linear indices
        dc, dr = kidx % s, kidx // s
        permute(dc, dr)
    yield
    if pid < s:
        col = fill(np.full(r, _POS))

    # ---- step 3 + 4 ----
    if pid < s:
        sortcol()
        k2 = rows * s + pid  # row-major linear indices of my entries
        dc, dr = k2 // r, k2 % r
        permute(dc, dr)
    yield
    if pid < s:
        col = fill(np.full(r, _POS))

    # ---- step 5 + 6 (shift into s+1 columns) ----
    shift = r // 2
    if pid < s:
        sortcol()
        kidx = pid * r + rows + shift
        dc, dr = kidx // r, kidx % r
        permute(dc, dr)
    yield
    if pid <= s:
        base = np.full(r, _POS if pid else _NEG)
        if pid == 0:
            base[shift:] = _POS  # only rows [0, shift) are -inf pads
            base[:shift] = _NEG
        col = fill(base)

    # ---- step 7 + 8 (unshift) ----
    if pid <= s:
        sortcol()
        kidx = pid * r + rows - shift
        valid = (kidx >= 0) & (kidx < r * s)
        vk = kidx[valid]
        send_pairs(vk // r, vk % r, col[valid], rows[valid])
    yield
    sorted_col = None
    if pid < s:
        sorted_col = fill(np.full(r, _POS))

    # ---- collect: route to final owners, n/p keys each ----
    per_proc = ceil_div(n, p)
    if pid < s:
        g = pid * r + rows  # global sorted positions (column-major)
        sel = g < n
        gs = g[sel]
        send_pairs(gs // per_proc, gs % per_proc, sorted_col[sel], rows[sel])
    yield
    mine = np.full(per_proc, _POS)
    got = np.zeros(per_proc, dtype=bool)
    pairs = ctx.receive().payloads
    if len(pairs):
        arr = np.asarray(pairs)
        idx = arr[:, 0].astype(np.int64)
        mine[idx] = arr[:, 1]
        got[idx] = True
    return mine[got].tolist()


def _columnsort_qsm_program(
    ctx, n: int, r: int, s: int, m_cap: int, per: int, chunk: Sequence[float], base: int = 0
):
    """Shared-memory columnsort: identical step structure to the BSP
    program, but every permutation is a write phase (cells keyed by the
    *destination* position, which is a fixed function of the step) followed
    by a read phase in which each sorter reads its column's ``r`` cells.

    Slot discipline mirrors the BSP program: distribution is staggered
    ``p``-wide, permutation phases have at most ``s+1 <= cap`` requesters
    per slot index.

    Cells are int64 addresses in one dense space from ``base``: cell
    ``(step, col, row)`` of write step ``step`` (0, 2, 4, 6 or 8) is
    ``base + (step // 2)·r(s+1) + col·r + row``, each step on its own
    plane of ``s + 1`` columns, and the output cell of global rank ``g``
    is ``base + 5·r(s+1) + g``.  Each phase's requests go out as one
    ``read_many``/``write_many`` over an int64 array, so the engine's
    address columns stay arrays (and resolve by fancy indexing on a
    :class:`~repro.core.engine.DenseSharedMemory`).  Only the ``s + 1``
    column owners build a column buffer.
    """
    pid, p = ctx.pid, ctx.nprocs
    groups = ceil_div(p, m_cap)
    plane = r * (s + 1)

    def cells(step: int, linear: np.ndarray) -> np.ndarray:
        return base + (step // 2) * plane + linear

    # ---- distribute ----
    offset = pid * per
    nc = len(chunk)
    if nc:
        g = offset + np.arange(nc, dtype=np.int64)
        ctx.write_many(
            cells(0, g),
            np.asarray(chunk, dtype=np.float64),
            slots=np.arange(nc, dtype=np.int64) * groups + pid // m_cap,
        )
    yield

    if pid <= s:
        rows = np.arange(r, dtype=np.int64)

    def read_column(step: int):
        return ctx.read_many(cells(step, pid * r + rows), slots=rows)

    def fill(handle, pads: np.ndarray) -> np.ndarray:
        # unwritten cells read back None and keep the pad value
        for row, v in enumerate(handle.values):
            if v is not None:
                pads[row] = v
        return pads

    handle = read_column(0) if pid < s else None
    yield
    if pid < s:
        col = fill(handle, np.full(r, _POS))

    def sortcol():
        nonlocal col
        col = np.sort(col)
        ctx.work(local_sort_work(r))

    def write_perm(step: int, dest: np.ndarray, valid=None):
        # dest[row] = destination column * r + destination row.  Slot =
        # source row index: in the unshift step columns 0 and s have
        # complementary valid row ranges, so using the (uncompacted) row
        # keeps every slot at <= s concurrent writers.
        sel = rows if valid is None else rows[valid]
        ctx.write_many(cells(step, dest[sel]), col[sel], slots=sel)

    # ---- step 1 + 2 (transpose) ----
    if pid < s:
        sortcol()
        kidx = pid * r + rows
        write_perm(2, (kidx % s) * r + kidx // s)
    yield
    handle = read_column(2) if pid < s else None
    yield
    if pid < s:
        col = fill(handle, np.full(r, _POS))

    # ---- step 3 + 4 (untranspose) ----
    if pid < s:
        sortcol()
        write_perm(4, rows * s + pid)
    yield
    handle = read_column(4) if pid < s else None
    yield
    if pid < s:
        col = fill(handle, np.full(r, _POS))

    # ---- step 5 + 6 (shift into s+1 columns) ----
    shift = r // 2
    if pid < s:
        sortcol()
        write_perm(6, pid * r + rows + shift)
    yield
    handle = read_column(6) if pid <= s else None
    yield
    if pid <= s:
        pads = np.full(r, _POS if pid else _NEG)
        if pid == 0:
            pads[shift:] = _POS
            pads[:shift] = _NEG
        col = fill(handle, pads)

    # ---- step 7 + 8 (unshift) ----
    if pid <= s:
        sortcol()
        kidx = pid * r + rows - shift
        write_perm(8, kidx, (kidx >= 0) & (kidx < r * s))
    yield
    handle = read_column(8) if pid < s else None
    yield

    # ---- collect ----
    per_proc = ceil_div(n, p)
    out = base + 5 * plane
    if pid < s:
        sorted_col = fill(handle, np.full(r, _POS))
        g = pid * r + rows
        keep = g < n  # compacted: the k-th valid write uses slot k
        ctx.write_many(
            out + g[keep],
            sorted_col[keep],
            slots=np.arange(int(keep.sum()), dtype=np.int64),
        )
    yield
    mine = pid * per_proc + np.arange(per_proc, dtype=np.int64)
    mine = mine[mine < n]
    out_handle = ctx.read_many(out + mine, slots=ctx.stagger_slots(mine.size))
    yield
    return [v for v in out_handle.values if v is not None]


def _qsm_cell_base(machine: Machine, n: int, r: int, s: int) -> int:
    """First address of QSM columnsort's cell space, ``5·r(s+1) + n`` int
    addresses (see :func:`_columnsort_qsm_program`).

    An empty shared memory is backed by a dense array over exactly that
    space (:meth:`~repro.core.engine.Machine.use_dense_memory`), so every
    phase resolves by fancy indexing.  A memory that already holds cells
    is kept, and the space starts past its highest integer address: no
    existing cell is overwritten, and no cell the sort leaves unwritten
    reads back anything but ``None``.
    """
    mem = machine.shared_memory
    if not mem:
        machine.use_dense_memory(5 * r * (s + 1) + n)
        return 0
    top = max((int(k) for k in mem if isinstance(k, (int, np.integer))), default=-1)
    return max(top + 1, 0)


def columnsort(
    machine: Machine,
    keys: Sequence[float],
    columns: Optional[int] = None,
) -> Tuple[RunResult, np.ndarray]:
    """Sort ``keys`` with columnsort on any of the four machine models.

    Returns ``(run_result, sorted_keys)``; processor ``i``'s final block is
    ``result.results[i]``.  Keys must be finite floats (``±inf`` are the
    pad sentinels).  On QSM machines the permutations move through shared
    memory (write phase + read phase) in int64 cells, and an empty memory
    is backed by a dense array over exactly those cells; on BSP machines
    they are point-to-point messages — same structure, same Θ(n/m)
    communication.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if keys.size and not np.all(np.isfinite(keys)):
        raise ValueError("keys must be finite (±inf are reserved as pads)")
    n = keys.size
    p = machine.params.p
    m = machine.params.m
    cap = m if m is not None else p
    if columns is not None:
        s = columns
        r = s * ceil_div(n, s * s) if s > 1 else n
    else:
        # QSM phases have s+1 active requesters (the shift-overflow column
        # reads/writes too), so keep s+1 <= m there; BSP permutation steps
        # never have more than s concurrent senders per slot.
        limit = cap - 1 if machine.uses_shared_memory else cap
        r, s = choose_columns(n, min(max(1, limit), p - 1) if p > 1 else 1)
    if s + 1 > p and s > 1:
        raise ValueError(f"columnsort with s={s} needs at least s+1={s+1} processors")
    if s == 1:
        # Degenerate single-column case: local sort on processor 0.
        def _seq(ctx, data):
            if ctx.pid == 0:
                ctx.work(local_sort_work(len(data)))
            yield
            return sorted(data) if ctx.pid == 0 else []

        res = machine.run(_seq, args=(list(map(float, keys)),))
        return res, np.asarray(res.results[0], dtype=np.float64)

    per_proc = ceil_div(n, p)
    chunks = [keys[i * per_proc : (i + 1) * per_proc] for i in range(p)]
    if machine.uses_shared_memory:
        program = _columnsort_qsm_program
        base = _qsm_cell_base(machine, n, r, s)
        per_proc_args = [(c, base) for c in chunks]
    else:
        program = _columnsort_program
        per_proc_args = [(c,) for c in chunks]
    res = machine.run(program, args=(n, r, s, cap, per_proc), per_proc_args=per_proc_args)
    out: List[float] = []
    for block in res.results:
        if block:
            out.extend(block)
    return res, np.asarray(out, dtype=np.float64)
