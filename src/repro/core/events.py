"""Event records produced by the bulk-synchronous engine.

The engine executes an SPMD program one superstep at a time.  During a
superstep each processor registers *operations* (message sends, shared-memory
reads/writes, local work); at the barrier the engine freezes them into a
:class:`SuperstepRecord`, prices it under the machine's cost metric, and
delivers the communication.  Records are retained on the
:class:`~repro.core.engine.RunResult` so benchmarks can decompose where time
went (work vs. bandwidth vs. latency vs. contention).

Columnar layout
---------------
The engine freezes each superstep into structure-of-arrays batches
(:class:`MessageBatch`, :class:`RequestBatch`) holding NumPy ``int64``
columns plus an object payload column, so pricing and delivery are single
vector operations instead of per-object Python loops; the one per-object
form left is :class:`Message`, which a processor's inbox view builds on
demand.

A superstep's traffic ends at its barrier.  Everything that reads the
columns (pricing, fault injection, delivery, the auditor, the tracer's and
the ledger's per-processor columns) reads them there; then the record
drops its three batches (:meth:`SuperstepRecord.release`) and keeps its
price and four counts.  A run's memory thus grows with one superstep's
traffic, not with the whole run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Message",
    "MessageBatch",
    "RequestBatch",
    "SuperstepRecord",
    "CostBreakdown",
]

_I64 = np.int64

#: Payload / value / address columns are either absent (all ``None``), a
#: Python list (heterogeneous objects), or a NumPy array (homogeneous data).
Column = Union[None, list, np.ndarray]


def _column_take(col: Column, idx: np.ndarray, n: int) -> Union[list, np.ndarray]:
    """Select ``idx`` entries of an object column (list result for object
    columns, array slice for array columns)."""
    if col is None:
        return [None] * n
    if isinstance(col, np.ndarray):
        return col[idx]
    return [col[i] for i in idx.tolist()]


def _concat_columns(cols: Sequence[Column], counts: Sequence[int]) -> Column:
    """Concatenate payload-style columns, preserving the cheapest faithful
    representation (``None`` if everything is None, one array if all are
    compatible arrays, otherwise a plain list)."""
    if all(c is None for c in cols):
        return None
    arrays = [c for c in cols if isinstance(c, np.ndarray)]
    if len(arrays) == len(cols):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    out: list = []
    for c, n in zip(cols, counts):
        if c is None:
            out.extend([None] * n)
        elif isinstance(c, np.ndarray):
            out.extend(c.tolist())
        else:
            out.extend(c)
    return out


@dataclass
class Message:
    """A point-to-point message.

    ``size`` is the length in flits (1 for a fixed-size message).  ``slot``
    is the injection time-slot of the *first* flit within the superstep; the
    remaining flits occupy consecutive slots when ``consecutive`` is true
    (wormhole-style), and the engine treats each flit as one injection.
    """

    src: int
    dest: int
    payload: Any = None
    size: int = 1
    slot: Optional[int] = None
    consecutive: bool = True

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"message size must be >= 1, got {self.size}")
        if self.slot is not None and self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")


class MessageBatch:
    """Structure-of-arrays form of one superstep's messages.

    Columns (all the same length ``n``):

    * ``src`` / ``dest`` / ``size`` / ``slot`` — ``int64`` arrays;
    * ``consecutive`` — bool array (wormhole flit expansion per message);
    * ``payload`` — ``None`` (all payloads None), a list, or an array.
    """

    __slots__ = ("src", "dest", "size", "slot", "consecutive", "payload", "_total_flits")

    def __init__(
        self,
        src: np.ndarray,
        dest: np.ndarray,
        size: np.ndarray,
        slot: np.ndarray,
        consecutive: np.ndarray,
        payload: Column = None,
    ) -> None:
        self.src = src
        self.dest = dest
        self.size = size
        self.slot = slot
        self.consecutive = consecutive
        self.payload = payload
        self._total_flits: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.src.size)

    @property
    def total_flits(self) -> int:
        if self._total_flits is None:
            self._total_flits = int(self.size.sum()) if self.src.size else 0
        return self._total_flits

    @property
    def unit_sized(self) -> bool:
        """True when every message is a single flit (the common case)."""
        return self.total_flits == self.n

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "MessageBatch":
        z = np.zeros(0, dtype=_I64)
        return cls(z, z, z, z, np.zeros(0, dtype=bool), None)

    def take(self, idx: np.ndarray) -> "MessageBatch":
        """New batch holding rows ``idx`` (in that order, repeats allowed).

        Used by the fault layer to derive the *delivered* batch from the
        *sent* batch (drops = missing rows, duplicates = repeated rows,
        reorders = permuted rows) without touching the original columns.
        """
        idx = np.asarray(idx, dtype=_I64)
        payload = None
        if self.payload is not None:
            payload = _column_take(self.payload, idx, int(idx.size))
        return MessageBatch(
            self.src[idx],
            self.dest[idx],
            self.size[idx],
            self.slot[idx],
            self.consecutive[idx],
            payload,
        )

    # ------------------------------------------------------------------
    def flit_expansion(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-flit ``(src, slot)`` arrays.

        A ``consecutive`` message of size ``s`` starting at slot ``t``
        occupies slots ``t .. t+s-1``; a non-consecutive one injects all
        ``s`` flits at slot ``t``.  Unit-size batches return the message
        columns directly (no copy).
        """
        if self.unit_sized:
            return self.src, self.slot
        reps = self.size
        starts = np.repeat(self.slot, reps)
        flit_src = np.repeat(self.src, reps)
        offs = np.arange(self.total_flits, dtype=_I64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        consec = np.repeat(self.consecutive, reps)
        return flit_src, starts + np.where(consec, offs, 0)

    def sends_by_proc(self, p: int) -> np.ndarray:
        """Flits sent per processor (length ``p``, ``int64``)."""
        if not self.n:
            return np.zeros(p, dtype=_I64)
        return np.bincount(self.src, weights=self.size, minlength=p).astype(_I64)

    def recvs_by_proc(self, p: int) -> np.ndarray:
        """Flits received per processor (length ``p``, ``int64``)."""
        if not self.n:
            return np.zeros(p, dtype=_I64)
        counts = np.bincount(self.dest, weights=self.size, minlength=p).astype(_I64)
        return counts[:p]


class RequestBatch:
    """Structure-of-arrays form of one phase's shared-memory requests.

    ``addr`` is an ``int64`` array when every address in the phase is an
    integer (enabling the dense-memory fast path) and a plain list
    otherwise.  For read batches, ``handles`` maps contiguous spans of the
    batch back to the program-facing handle objects as
    ``(handle, start, stop)`` triples; the engine resolves each span at the
    barrier.  For write batches, ``value`` is the value column.
    """

    __slots__ = ("pid", "addr", "slot", "value", "handles")

    def __init__(
        self,
        pid: np.ndarray,
        addr: Union[list, np.ndarray],
        slot: np.ndarray,
        value: Column = None,
        handles: Optional[List[Tuple[Any, int, int]]] = None,
    ) -> None:
        self.pid = pid
        self.addr = addr
        self.slot = slot
        self.value = value
        self.handles = handles if handles is not None else []

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.pid.size)

    def addr_list(self) -> list:
        return self.addr.tolist() if isinstance(self.addr, np.ndarray) else self.addr

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "RequestBatch":
        z = np.zeros(0, dtype=_I64)
        return cls(z, [], z, None, [])


@dataclass
class CostBreakdown:
    """Components that fed a superstep's cost, all in model time units."""

    work: float = 0.0
    local_band: float = 0.0  # g*h (locally-limited) or h (globally-limited)
    global_band: float = 0.0  # c_m, or n/m for the self-scheduling metric
    latency: float = 0.0  # L (BSP only)
    contention: float = 0.0  # kappa (QSM only)

    def total(self) -> float:
        return max(
            self.work,
            self.local_band,
            self.global_band,
            self.latency,
            self.contention,
        )

    def dominant(self) -> str:
        """Name of the component that determined the cost (ties broken in
        declaration order)."""
        items = [
            ("work", self.work),
            ("local_band", self.local_band),
            ("global_band", self.global_band),
            ("latency", self.latency),
            ("contention", self.contention),
        ]
        best_name, best_val = items[0]
        for name, val in items[1:]:
            if val > best_val:
                best_name, best_val = name, val
        return best_name


class SuperstepRecord:
    """Everything a superstep did, plus its price.

    Attributes
    ----------
    index:
        0-based superstep number.
    work:
        Per-processor local work amounts.
    msg_batch:
        All messages sent this superstep (BSP machines); ``None`` once the
        record is released.
    read_batch / write_batch:
        All shared-memory requests (QSM machines); ``None`` once the
        record is released.
    n_messages / total_flits / n_reads / n_writes:
        The batches' sizes, counted when the record is built and kept
        after it is released.
    cost:
        The model time charged.
    breakdown:
        The components behind ``cost``.
    stats:
        Free-form metrics the cost model wants to expose (``h``, ``kappa``,
        ``c_m``, ``n``, max slot, overload count, ...).

    The batches are read at the barrier only: by the pricing, the fault
    injector, delivery, the auditor and the observers.  Then the engine
    (and compiled replay, after its observation pass) calls
    :meth:`release`, so a :class:`~repro.core.engine.RunResult` holds
    prices and counts, never traffic.
    """

    __slots__ = (
        "index",
        "work",
        "cost",
        "breakdown",
        "stats",
        "n_messages",
        "total_flits",
        "n_reads",
        "n_writes",
        "msg_batch",
        "read_batch",
        "write_batch",
    )

    def __init__(
        self,
        index: int,
        work: List[float],
        *,
        msg_batch: Optional[MessageBatch] = None,
        read_batch: Optional[RequestBatch] = None,
        write_batch: Optional[RequestBatch] = None,
        cost: float = 0.0,
        breakdown: Optional[CostBreakdown] = None,
        stats: Optional[Dict[str, float]] = None,
    ) -> None:
        self.index = index
        self.work = work
        self.cost = cost
        self.breakdown = breakdown if breakdown is not None else CostBreakdown()
        self.stats = stats if stats is not None else {}
        self.msg_batch = msg_batch if msg_batch is not None else MessageBatch.empty()
        self.read_batch = read_batch if read_batch is not None else RequestBatch.empty()
        self.write_batch = write_batch if write_batch is not None else RequestBatch.empty()
        self.n_messages = self.msg_batch.n
        self.total_flits = self.msg_batch.total_flits
        self.n_reads = self.read_batch.n
        self.n_writes = self.write_batch.n

    def release(self) -> None:
        """Drop the three batches at the end of the barrier; the price and
        the four counts stay."""
        self.msg_batch = self.read_batch = self.write_batch = None

    @property
    def is_empty(self) -> bool:
        """No communication and no work this superstep."""
        return (
            self.n_messages == 0
            and self.n_reads == 0
            and self.n_writes == 0
            and not any(self.work)
        )

    def sends_by_proc(self, p: int) -> np.ndarray:
        """Number of flits sent by each processor (``int64`` array); at the
        barrier only."""
        return self.msg_batch.sends_by_proc(p)

    def recvs_by_proc(self, p: int) -> np.ndarray:
        """Number of flits received by each processor (``int64`` array); at
        the barrier only."""
        return self.msg_batch.recvs_by_proc(p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SuperstepRecord(index={self.index}, messages={self.n_messages}, "
            f"reads={self.n_reads}, writes={self.n_writes}, cost={self.cost})"
        )
