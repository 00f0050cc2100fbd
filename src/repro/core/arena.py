"""Preallocated superstep arenas for the engine's barrier loop.

Every ``send``/``send_many``/``read``/``write`` appends directly into a
machine-owned arena — a set of preallocated, growable ``int64`` columns
shared by all processors — so the barrier freeze is a single slice-copy
per column instead of a Python-level merge pass, and no per-call
``MessageBatch``/``RequestBatch`` chunks (or their per-chunk ``np.full``
source columns) are ever allocated.

Correctness contract
--------------------
``freeze()`` produces the superstep's batches in pid-major issue order:
each processor's operations in the order it issued them, processors in
pid order, with one payload-column representation rule (``None`` if every
payload is ``None``, a single array when all chunks are arrays, a list
otherwise — see :func:`repro.core.events._concat_columns`).  The engine
advances processors sequentially in pid order within a superstep, so
append order already *is* pid-major order.  The one exception — programs
where some processors are plain functions (executed at construction time)
and others are generators (executed at the first barrier) — is detected via
a pid-monotonicity check and repaired at freeze time with a stable sort by
source pid, which restores pid-major order exactly.  The frozen records
are pinned against golden records by ``tests/test_fused_kernel.py``.

Arenas are reused across supersteps and across runs on the same machine;
``grows`` counts capacity growths so benchmarks can assert steady-state
runs allocate nothing (see ``benchmarks/bench_engine_throughput.py``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.events import (
    Column,
    MessageBatch,
    RequestBatch,
    _column_take,
    _concat_columns,
)
from repro.core.kernels import stable_group_order

__all__ = ["SendArena", "RequestArena"]

_I64 = np.int64


def _int_addr_column(addrs: list) -> Any:
    """Int64 array when every address is an integer, else the list itself."""
    if addrs and all(isinstance(a, (int, np.integer)) for a in addrs):
        return np.asarray(addrs, dtype=_I64)
    return addrs


def _concat_addr(chunks: List[Tuple[Any, int]]) -> Any:
    """Concatenate address chunks into a :class:`RequestBatch` ``addr``
    column: one int64 array when every chunk is an array, else a flat
    list."""
    if len(chunks) == 1:
        return chunks[0][0]
    if all(isinstance(c, np.ndarray) for c, _ in chunks):
        return np.concatenate([c for c, _ in chunks])
    out: list = []
    for c, _ in chunks:
        out.extend(c.tolist() if isinstance(c, np.ndarray) else c)
    return out


class _ColumnArena:
    """Shared bookkeeping for growable column sets."""

    GROW_FACTOR = 2

    def __init__(self, capacity: int) -> None:
        self._cap = max(1, capacity)
        self.n = 0
        #: Number of capacity growths since construction; a steady-state
        #: workload re-run on the same machine must keep this constant.
        self.grows = 0
        #: True when appends arrived out of pid order this superstep (mixed
        #: plain-function / generator programs); freeze() restores order.
        self._out_of_order = False
        self._last_pid = -1

    def _note_pid(self, pid: int) -> None:
        if pid < self._last_pid:
            self._out_of_order = True
        self._last_pid = pid

    def _grown(self, need: int) -> int:
        self.grows += 1
        self._cap = max(need, self._cap * self.GROW_FACTOR)
        return self._cap


class SendArena(_ColumnArena):
    """Arena for one superstep's message sends (all processors)."""

    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(capacity)
        cap = self._cap
        self.src = np.empty(cap, dtype=_I64)
        self.dest = np.empty(cap, dtype=_I64)
        self.size = np.empty(cap, dtype=_I64)
        self.slot = np.empty(cap, dtype=_I64)
        self.consecutive = np.empty(cap, dtype=bool)
        self._payload_chunks: List[Tuple[Column, int]] = []
        # scalar merge buffers: consecutive scalar sends (possibly spanning
        # processors) collapse into one chunk of (pid, count) runs
        self._run_pids: List[int] = []
        self._run_counts: List[int] = []
        self._s_dest: List[int] = []
        self._s_size: List[int] = []
        self._s_slot: List[int] = []
        self._s_consec: List[bool] = []
        self._s_payload: List[Any] = []

    def _ensure(self, extra: int) -> None:
        need = self.n + extra
        if need <= self._cap:
            return
        cap = self._grown(need)
        for name in ("src", "dest", "size", "slot", "consecutive"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    # -- appends (call-time, pid order) ---------------------------------------
    def append_scalar(
        self, pid: int, dest: int, size: int, slot: int, consec: bool, payload: Any
    ) -> None:
        self._note_pid(pid)
        if self._run_pids and self._run_pids[-1] == pid:
            self._run_counts[-1] += 1
        else:
            self._run_pids.append(pid)
            self._run_counts.append(1)
        self._s_dest.append(dest)
        self._s_size.append(size)
        self._s_slot.append(slot)
        self._s_consec.append(consec)
        self._s_payload.append(payload)

    def append_batch(
        self,
        pid: int,
        dest: np.ndarray,
        size: Optional[np.ndarray],
        slot: np.ndarray,
        consecutive: bool,
        payloads: Column,
    ) -> None:
        """Append one ``send_many`` batch (``size=None`` means all-unit)."""
        self._note_pid(pid)
        self._flush_scalars()
        k = int(dest.size)
        self._ensure(k)
        i, j = self.n, self.n + k
        self.src[i:j] = pid
        self.dest[i:j] = dest
        if size is None:
            self.size[i:j] = 1
        else:
            self.size[i:j] = size
        self.slot[i:j] = slot
        self.consecutive[i:j] = consecutive
        self._payload_chunks.append((payloads, k))
        self.n = j

    def _flush_scalars(self) -> None:
        k = len(self._s_dest)
        if not k:
            return
        self._ensure(k)
        i, j = self.n, self.n + k
        self.src[i:j] = np.repeat(
            np.asarray(self._run_pids, dtype=_I64),
            np.asarray(self._run_counts, dtype=_I64),
        )
        self.dest[i:j] = self._s_dest
        self.size[i:j] = self._s_size
        self.slot[i:j] = self._s_slot
        self.consecutive[i:j] = self._s_consec
        pl: Column = (
            None if all(x is None for x in self._s_payload) else list(self._s_payload)
        )
        self._payload_chunks.append((pl, k))
        self.n = j
        self._run_pids.clear()
        self._run_counts.clear()
        self._s_dest.clear()
        self._s_size.clear()
        self._s_slot.clear()
        self._s_consec.clear()
        self._s_payload.clear()

    # -- barrier --------------------------------------------------------------
    def freeze(self) -> MessageBatch:
        """Copy the arena contents out as this superstep's frozen batch."""
        self._flush_scalars()
        n = self.n
        if n == 0:
            return MessageBatch.empty()
        payload = _concat_columns(
            [c for c, _ in self._payload_chunks],
            [k for _, k in self._payload_chunks],
        )
        batch = MessageBatch(
            self.src[:n].copy(),
            self.dest[:n].copy(),
            self.size[:n].copy(),
            self.slot[:n].copy(),
            self.consecutive[:n].copy(),
            payload,
        )
        if self._out_of_order:
            # same permutation as np.argsort(kind="stable"), via the ~7×
            # faster combined-key sort (pids are small non-negative ints)
            order = stable_group_order(batch.src, int(batch.src.max()))
            batch = batch.take(order)
        return batch

    def reset(self) -> None:
        self.n = 0
        self._payload_chunks.clear()
        self._out_of_order = False
        self._last_pid = -1


class RequestArena(_ColumnArena):
    """Arena for one phase's shared-memory requests (reads *or* writes).

    Reads carry ``(handle, start, stop)`` spans with offsets absolute in
    the frozen batch; writes carry a value column.  One instance serves one
    kind — the machine owns a read arena and a write arena.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)
        cap = self._cap
        self.pid = np.empty(cap, dtype=_I64)
        self.slot = np.empty(cap, dtype=_I64)
        self._addr_chunks: List[Tuple[Any, int]] = []
        self._value_chunks: List[Tuple[Column, int]] = []
        self.handles: List[Tuple[Any, int, int]] = []
        # scalar merge buffers
        self._run_pids: List[int] = []
        self._run_counts: List[int] = []
        self._s_addr: List[Any] = []
        self._s_slot: List[int] = []
        self._s_value: List[Any] = []
        self._s_handle: List[Any] = []

    def _ensure(self, extra: int) -> None:
        need = self.n + extra
        if need <= self._cap:
            return
        cap = self._grown(need)
        for name in ("pid", "slot"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    # -- appends (call-time, pid order) ---------------------------------------
    def append_scalar_read(self, pid: int, addr: Any, slot: int, handle: Any) -> None:
        self._note_pid(pid)
        self._merge_run(pid)
        self._s_addr.append(addr)
        self._s_slot.append(slot)
        self._s_handle.append(handle)

    def append_scalar_write(self, pid: int, addr: Any, slot: int, value: Any) -> None:
        self._note_pid(pid)
        self._merge_run(pid)
        self._s_addr.append(addr)
        self._s_slot.append(slot)
        self._s_value.append(value)

    def _merge_run(self, pid: int) -> None:
        if self._run_pids and self._run_pids[-1] == pid:
            self._run_counts[-1] += 1
        else:
            self._run_pids.append(pid)
            self._run_counts.append(1)

    def append_batch_read(
        self, pid: int, addr: Any, slot: np.ndarray, handle: Any
    ) -> None:
        self._note_pid(pid)
        self._flush_scalars()
        k = len(addr)
        self._ensure(k)
        i, j = self.n, self.n + k
        self.pid[i:j] = pid
        self.slot[i:j] = slot
        self._addr_chunks.append((addr, k))
        self._value_chunks.append((None, k))
        self.handles.append((handle, i, j))
        self.n = j

    def append_batch_write(
        self, pid: int, addr: Any, slot: np.ndarray, values: Column
    ) -> None:
        self._note_pid(pid)
        self._flush_scalars()
        k = len(addr)
        self._ensure(k)
        i, j = self.n, self.n + k
        self.pid[i:j] = pid
        self.slot[i:j] = slot
        self._addr_chunks.append((addr, k))
        self._value_chunks.append((values, k))
        self.n = j

    def _flush_scalars(self) -> None:
        k = len(self._s_addr)
        if not k:
            return
        self._ensure(k)
        i, j = self.n, self.n + k
        self.pid[i:j] = np.repeat(
            np.asarray(self._run_pids, dtype=_I64),
            np.asarray(self._run_counts, dtype=_I64),
        )
        self.slot[i:j] = self._s_slot
        self._addr_chunks.append((_int_addr_column(list(self._s_addr)), k))
        if self._s_handle:
            for off, h in enumerate(self._s_handle):
                self.handles.append((h, i + off, i + off + 1))
            self._value_chunks.append((None, k))
        else:
            self._value_chunks.append((list(self._s_value), k))
        self.n = j
        self._run_pids.clear()
        self._run_counts.clear()
        self._s_addr.clear()
        self._s_slot.clear()
        self._s_value.clear()
        self._s_handle.clear()

    # -- barrier --------------------------------------------------------------
    def freeze(self, *, with_values: bool) -> RequestBatch:
        """Copy the arena out as the phase's frozen read or write batch."""
        self._flush_scalars()
        n = self.n
        if n == 0:
            return RequestBatch.empty()
        addr = _concat_addr(self._addr_chunks)
        value: Column = None
        if with_values:
            value = _concat_columns(
                [c for c, _ in self._value_chunks],
                [k for _, k in self._value_chunks],
            )
        batch = RequestBatch(
            self.pid[:n].copy(),
            addr,
            self.slot[:n].copy(),
            value,
            list(self.handles),
        )
        if self._out_of_order:
            batch = self._reorder(batch)
        return batch

    def _reorder(self, batch: RequestBatch) -> RequestBatch:
        """Restore pid-major order after a mixed plain/generator
        program appended out of pid order (rare; see module docstring).
        Each handle span belongs to one processor's contiguous appends, so
        spans stay contiguous under the stable sort and only shift."""
        order = stable_group_order(batch.pid, int(batch.pid.max()))
        inv = np.empty(order.size, dtype=_I64)
        inv[order] = np.arange(order.size, dtype=_I64)
        addr = batch.addr
        addr2 = addr[order] if isinstance(addr, np.ndarray) else [addr[i] for i in order.tolist()]
        value2 = None
        if batch.value is not None:
            value2 = _column_take(batch.value, order, int(order.size))
        handles2 = [(h, int(inv[s]), int(inv[s]) + (e - s)) for h, s, e in batch.handles]
        return RequestBatch(batch.pid[order], addr2, batch.slot[order], value2, handles2)

    def reset(self) -> None:
        self.n = 0
        self._addr_chunks.clear()
        self._value_chunks.clear()
        self.handles.clear()
        self._out_of_order = False
        self._last_pid = -1
