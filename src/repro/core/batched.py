"""Batched multi-trial replay: one recorded schedule, B parameter points.

Every Table-1/Section-5/Section-6 experiment is a sweep — the *same*
straight-line program priced under many ``(g, m, L, penalty)`` points.
:meth:`~repro.core.compiled.CompiledProgram.replay` already skips the
trampoline, but a sweep still re-derives each superstep's *structure*
(max work, per-processor ``h``, the slot-injection histogram, QSM
contention) once per trial even though it is parameter-independent.
:func:`replay_batch` hoists that work out of the trial loop: each frame is
priced by one call of the model's
:meth:`~repro.core.engine.Machine._price_batch` — the same definition a
sequential replay calls with one machine — which derives the structure
once and prices it under all B machines' parameters, with one histogram
pass per penalty family; shared-memory writes are applied per machine
exactly as a sequential replay would.

Bit-identity contract
---------------------
``replay_batch(compiled, machines)[b]`` equals
``compiled.replay(machines[b])`` exactly — model times, cost breakdowns
and stats dicts (values *and* key insertion order).  Sequential pricing
is ``_price_batch`` with a batch of one, and each trial's row of the
slot-charge kernel (:func:`repro.core.kernels.slot_charge_stats_batched`)
does not depend on its batch-mates, so no second floating-point path
exists to drift.  The contract is gated by ``tests/test_batched_replay.py``
in both Numba configurations, and every model's pricing by the
``core/costs.py`` oracle in ``tests/test_pricing_oracle.py``.

When batching engages
---------------------
All machines must be instances of the *same* concrete model class (any
model — each prices through its own ``_price_batch``), recorded and
replayed on the same memory kind, with enough processors and no fault
injector — the same validity rules as sequential replay.  A model rule
a machine breaks (a LogP over its ``ceil(L/g)`` capacity, an EREW PRAM
step with contention, a PRAM(m) address past its ``m``) raises the same
:class:`~repro.core.engine.ModelViolation` its sequential replay would.
When a tracer or metrics registry is active the call transparently
degrades to sequential replays (observability hooks are per-run, so a
fused pass cannot emit faithful per-trial spans).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.compiled import CompiledProgram, _check_no_injector
from repro.core.engine import Machine, RunResult
from repro.core.events import SuperstepRecord
from repro.obs.metrics import active_metrics as _active_metrics
from repro.obs.tracer import active_tracer as _active_tracer

__all__ = ["replay_batch"]


def replay_batch(
    compiled: CompiledProgram, machines: Sequence[Machine]
) -> List[RunResult]:
    """Replay ``compiled`` on every machine in one fused pass.

    Element ``b`` of the returned list is bit-identical to
    ``compiled.replay(machines[b])`` (see module docstring).  All machines
    must share one concrete model class; each is validated with the same
    rules as sequential replay before any pricing or write application
    happens.  Falls back to per-machine sequential replays when a tracer
    or metrics registry is active.
    """
    machines = list(machines)
    if not machines:
        return []
    cls = type(machines[0])
    for mach in machines:
        if type(mach) is not cls:
            raise ValueError(
                "replay_batch needs machines of one model class; got "
                f"{cls.__name__} and {type(mach).__name__}"
            )
        if mach.uses_shared_memory != compiled.uses_shared_memory:
            raise ValueError(
                "compiled program was recorded on a "
                f"{'shared-memory' if compiled.uses_shared_memory else 'message-passing'}"
                f" machine; {type(mach).__name__} is not one"
            )
        if mach.params.p < compiled.p:
            raise ValueError(
                f"machine has {mach.params.p} processors, recorded "
                f"program used {compiled.p}"
            )
        _check_no_injector(mach, "replay")
    if _active_tracer() is not None or _active_metrics() is not None:
        return [compiled.replay(mach) for mach in machines]
    B = len(machines)
    records: List[List[SuperstepRecord]] = [[] for _ in range(B)]
    for index, (work, msg_b, read_b, write_b) in enumerate(compiled.frames):
        probe = SuperstepRecord(
            index=index,
            work=work,
            msg_batch=msg_b,
            read_batch=read_b,
            write_batch=write_b,
        )
        priced = machines[0]._price_batch(probe, machines)
        # the probe doubles as machine 0's record; the rest alias the same
        # frozen batches, exactly as sequential replays of one compilation do
        probe.cost, probe.breakdown, probe.stats = priced[0]
        records[0].append(probe)
        for b in range(1, B):
            rec = SuperstepRecord(
                index=index,
                work=work,
                msg_batch=msg_b,
                read_batch=read_b,
                write_batch=write_b,
            )
            rec.cost, rec.breakdown, rec.stats = priced[b]
            records[b].append(rec)
        if write_b.n:
            for mach in machines:
                CompiledProgram._apply_writes(mach, write_b)
    return [
        RunResult(
            params=mach.params,
            records=records[b],
            results=list(compiled.results),
        )
        for b, mach in enumerate(machines)
    ]
