"""Deterministic fault plans and the columnar fault injector.

A :class:`FaultPlan` is an immutable, seeded description of everything that
can go wrong in a run: per-message network faults (drop, duplicate, reorder,
payload corruption) and per-processor faults (stall / crash for a span of
supersteps).  A :class:`FaultInjector` executes a plan against the engine's
frozen :class:`~repro.core.events.MessageBatch` at each barrier — the
delivered batch is derived from the sent batch with a handful of vectorized
index operations, and the *sent* batch is what the machine prices, so a
dropped flit still counts against the aggregate bandwidth ``m_t`` (the
sender injected it; the network ate it).

Determinism
-----------
Every random draw comes from ``default_rng([plan.seed, step])`` where
``step`` is the injector's monotonically increasing barrier counter.  Two
runs that attach fresh injectors built from the same plan see bit-identical
faults; successive runs through one injector (e.g. the retry rounds of
:mod:`repro.faults.transport`) see fresh, but still reproducible, draws.
Call :meth:`FaultInjector.reset` to rewind the counter.

The disabled path costs nothing: a machine without an injector skips the
hook entirely, and a null plan (all rates zero, no stalls/crashes) returns
the sent batch unchanged, so delivery is bit-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.core.events import MessageBatch
from repro.obs.metrics import active_metrics
from repro.util.validation import check_nonnegative, check_prob

__all__ = [
    "StallSpec",
    "CrashSpec",
    "FaultPlan",
    "FaultInjector",
    "CorruptedPayload",
    "is_corrupted",
]

_I64 = np.int64


class CorruptedPayload:
    """Wrapper marking an object payload as corrupted in flight.

    Integer-array payload columns are corrupted in place by bitwise
    negation instead (the corrupted value is always negative, so a
    transport layer using non-negative sequence numbers detects it the way
    a real one detects a failed checksum).
    """

    __slots__ = ("original",)

    def __init__(self, original: object) -> None:
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptedPayload({self.original!r})"


def is_corrupted(payload: object) -> bool:
    """True when a payload is a detectably corrupted delivery."""
    if isinstance(payload, CorruptedPayload):
        return True
    return isinstance(payload, (int, np.integer)) and payload < 0


@dataclass(frozen=True)
class StallSpec:
    """Processor ``pid`` freezes for supersteps ``start .. start+duration-1``.

    ``start`` is measured on the injector's global barrier clock (see
    :meth:`FaultInjector.halted`), so windows elapse across successive runs
    through one injector.  A stalled processor does not advance (it
    executes no code and registers no operations) but stays alive and
    resumes afterwards.  Messages
    delivered to it while stalled are lost — the engine's inbox only
    survives one superstep — which is exactly the failure a reliable
    transport must recover from.
    """

    pid: int
    start: int
    duration: int = 1

    def __post_init__(self) -> None:
        check_nonnegative("pid", self.pid)
        check_nonnegative("start", self.start)
        if self.duration < 1:
            raise ValueError(f"stall duration must be >= 1, got {self.duration}")


@dataclass(frozen=True)
class CrashSpec:
    """Processor ``pid`` crashes for ``duration`` supersteps from ``start``.

    ``start`` is measured on the injector's global barrier clock, like
    :class:`StallSpec`.  A crash is a stall plus message loss: everything
    addressed to the processor while it is down is dropped at the barrier (and, since it
    executes no code, it sends nothing).  After ``duration`` supersteps the
    processor reboots and resumes from where it yielded.
    """

    pid: int
    start: int
    duration: int = 1

    def __post_init__(self) -> None:
        check_nonnegative("pid", self.pid)
        check_nonnegative("start", self.start)
        if self.duration < 1:
            raise ValueError(f"crash duration must be >= 1, got {self.duration}")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, immutable description of the faults to inject into a run.

    Rates are independent per-message probabilities applied at each
    barrier; ``seed`` makes the whole plan deterministic.

    Parameters
    ----------
    seed:
        Root seed for every random draw the injector makes.
    drop_rate:
        Probability that a sent message is silently discarded in flight.
    duplicate_rate:
        Probability that a delivered message arrives twice.
    reorder_rate:
        Probability that a delivered message is pulled into a random
        shuffle of its superstep's delivery order (BSP semantics make
        inbox order arbitrary anyway; this exercises order-sensitive
        consumers).
    corrupt_rate:
        Probability that a delivered message's payload is corrupted
        detectably (bitwise negation for integer payload columns,
        :class:`CorruptedPayload` wrapping otherwise).
    stalls / crashes:
        Per-processor :class:`StallSpec` / :class:`CrashSpec` tuples.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    stalls: Tuple[StallSpec, ...] = ()
    crashes: Tuple[CrashSpec, ...] = ()

    def __post_init__(self) -> None:
        check_prob("drop_rate", self.drop_rate)
        check_prob("duplicate_rate", self.duplicate_rate)
        check_prob("reorder_rate", self.reorder_rate)
        check_prob("corrupt_rate", self.corrupt_rate)
        # tolerate lists at construction time; store canonical tuples
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all (the ~0-cost path)."""
        return (
            self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.reorder_rate == 0.0
            and self.corrupt_rate == 0.0
            and not self.stalls
            and not self.crashes
        )


_EMPTY_STATS: Dict[str, float] = {}


class FaultInjector:
    """Executes a :class:`FaultPlan` against frozen superstep batches.

    Attach to a machine with ``machine.inject_faults(plan)`` (or by
    assigning ``machine.fault_injector``).  The engine consults the
    injector at every barrier:

    * :meth:`halted` — which processors are stalled or crashed at a
      superstep (the engine skips advancing them);
    * :meth:`apply` — transform the sent :class:`MessageBatch` into the
      delivered one (drops, duplicates, reorders, corruption, plus loss of
      messages addressed to crashed processors).

    The injector accumulates run-wide ``totals`` (injected / delivered /
    dropped / duplicated / corrupted / reordered message counts) for
    reporting, and stamps the same counters into each faulted record's
    ``stats`` under ``fault_*`` keys.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._step = 0
        self._stalled: Dict[int, set] = {}
        self._crashed: Dict[int, set] = {}
        for s in plan.stalls:
            for t in range(s.start, s.start + s.duration):
                self._stalled.setdefault(t, set()).add(s.pid)
        for c in plan.crashes:
            for t in range(c.start, c.start + c.duration):
                self._crashed.setdefault(t, set()).add(c.pid)
        self.totals: Dict[str, int] = dict(
            injected=0, delivered=0, dropped=0, duplicated=0, corrupted=0, reordered=0
        )

    def reset(self) -> None:
        """Rewind the barrier counter and zero the totals, so the next run
        sees the same fault sequence as a fresh injector."""
        self._step = 0
        for k in self.totals:
            self.totals[k] = 0

    # ------------------------------------------------------------------
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng([self.plan.seed, self._step])

    def halted(self, index: int) -> Optional[FrozenSet[int]]:
        """Pids stalled or crashed at the current superstep (or ``None`` —
        the common fast path — when nobody is down).

        Stall/crash windows are indexed in the injector's *global* barrier
        clock, not the run-local ``index``: the clock keeps counting across
        successive runs through the same injector (e.g. the retry rounds of
        the reliable transport), so a processor crashed for ``duration``
        supersteps comes back even if every retry run restarts its local
        index at zero.  :meth:`reset` rewinds the clock.
        """
        del index  # run-local; the plan's clock is the injector's own
        t = self._step
        stalled = self._stalled.get(t)
        crashed = self._crashed.get(t)
        if stalled is None and crashed is None:
            return None
        return frozenset((stalled or set()) | (crashed or set()))

    # ------------------------------------------------------------------
    def apply(
        self, batch: MessageBatch, index: int, nprocs: int
    ) -> Tuple[MessageBatch, Dict[str, float]]:
        """Derive the delivered batch from the sent batch at a barrier.

        Returns ``(delivered_batch, stats)``; ``stats`` is empty when the
        plan is null (so the fault-free path stays bit-identical to a run
        without an injector).  The sent batch is never mutated.
        """
        del index  # run-local; faults tick on the injector's global clock
        t = self._step
        self._step += 1
        plan = self.plan
        if plan.is_null:
            return batch, _EMPTY_STATS
        n = batch.n
        crashed = self._crashed.get(t)
        if n == 0:
            return batch, _EMPTY_STATS
        rng = self._rng()
        keep = np.ones(n, dtype=bool)
        if crashed:
            down = np.fromiter(crashed, dtype=_I64)
            keep &= ~np.isin(batch.dest, down)
        if plan.drop_rate > 0.0:
            keep &= rng.random(n) >= plan.drop_rate
        idx = np.nonzero(keep)[0]
        dropped = n - int(idx.size)
        duplicated = 0
        if plan.duplicate_rate > 0.0 and idx.size:
            dup = idx[rng.random(idx.size) < plan.duplicate_rate]
            duplicated = int(dup.size)
            if duplicated:
                idx = np.concatenate([idx, dup])
        reordered = 0
        if plan.reorder_rate > 0.0 and idx.size > 1:
            sel = np.nonzero(rng.random(idx.size) < plan.reorder_rate)[0]
            if sel.size > 1:
                reordered = int(sel.size)
                idx[sel] = idx[sel][rng.permutation(sel.size)]
        if dropped or duplicated or reordered:
            delivered = batch.take(idx)
        else:
            delivered = batch
        corrupted = 0
        if plan.corrupt_rate > 0.0 and delivered.n:
            mask = rng.random(delivered.n) < plan.corrupt_rate
            corrupted = int(mask.sum())
            if corrupted:
                delivered = self._corrupt(delivered, mask)
        stats = {
            "fault_injected": float(n),
            "fault_delivered": float(delivered.n),
            "fault_dropped": float(dropped),
            "fault_duplicated": float(duplicated),
            "fault_corrupted": float(corrupted),
            "fault_reordered": float(reordered),
        }
        self.totals["injected"] += n
        self.totals["delivered"] += delivered.n
        self.totals["dropped"] += dropped
        self.totals["duplicated"] += duplicated
        self.totals["corrupted"] += corrupted
        self.totals["reordered"] += reordered
        metrics = active_metrics()
        if metrics is not None:
            metrics.counter("faults.injected").inc(n)
            metrics.counter("faults.delivered").inc(delivered.n)
            metrics.counter("faults.dropped").inc(dropped)
            metrics.counter("faults.duplicated").inc(duplicated)
            metrics.counter("faults.corrupted").inc(corrupted)
            metrics.counter("faults.reordered").inc(reordered)
        return delivered, stats

    @staticmethod
    def _corrupt(batch: MessageBatch, mask: np.ndarray) -> MessageBatch:
        """Corrupt the payloads selected by ``mask`` (detectably)."""
        payload = batch.payload
        if payload is None:
            # nothing carried, nothing to corrupt — wrap a marker so the
            # receiver can still detect the damaged delivery
            col: list = [None] * batch.n
            for i in np.nonzero(mask)[0].tolist():
                col[i] = CorruptedPayload(None)
        elif isinstance(payload, np.ndarray) and payload.dtype.kind in "iu":
            col = payload.copy()
            col[mask] = ~col[mask]  # bit-flip: always negative for seq ids
        else:
            col = list(payload)
            for i in np.nonzero(mask)[0].tolist():
                col[i] = CorruptedPayload(col[i])
        return MessageBatch(
            batch.src, batch.dest, batch.size, batch.slot, batch.consecutive, col
        )
