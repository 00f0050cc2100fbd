"""Compiled-superstep mode: record a program's barrier schedule, replay it.

A bulk-synchronous program whose communication pattern has **no
data-dependent control flow between barriers** — every run sends the same
messages in the same slots regardless of what arrives — is fully described
by its sequence of frozen :class:`~repro.core.events.SuperstepRecord`
batches.  For such *straight-line* programs the coroutine trampoline in
:mod:`repro.core.engine` is pure overhead after the first run: this module
records the superstep schedule once and replays it as a batch-at-a-time
loop (freeze is free, pricing and write application are the only work),
skipping generator dispatch, per-call validation and arena assembly
entirely.

Which programs qualify
----------------------
* the h-relation routing program of :mod:`repro.scheduling.execute` (one
  ``send_many`` per processor, one barrier — ``compile_schedule`` builds
  its frame straight from the schedule, without even a recording run, and
  ``execute_schedule`` replays it automatically);
* :func:`repro.algorithms.total_exchange.run_total_exchange` (a fixed
  latin-square schedule, via ``execute_schedule``);
* any fixed-schedule QSM phase program whose addresses don't depend on
  read values.

Programs that do **not** qualify — and must stay on the trampoline — are
those whose sends depend on received data: the sample-sort pivot exchange,
``h_relation``'s two-phase balancing (phase 2 routes what phase 1
delivered), the ``pram_algorithms`` pointer-jumping loops (each round
reads the previous round's links), and anything driven by
:mod:`repro.faults` retries.  Replaying those would freeze one particular
execution's data flow, not the algorithm.

Validity across machines
------------------------
``replay(machine)`` re-prices the recorded schedule under ``machine``'s
cost model, so a single recording supports penalty-family and ``L``/``g``
ablations (the sweep engine's main loop).  Replaying on a machine with a
*different* aggregate bandwidth ``m`` is only meaningful when the recorded
program did not consult ``m`` when placing slots (``Proc.stagger_slot``
does); slot-exclusivity is still re-checked by the target machine's
pricing, so an invalid transplant raises
:class:`~repro.core.engine.ModelViolation` rather than mispricing.
Fault injection is refused on both record and replay: the recorded results
reflect a fault-free execution, and replaying cannot re-run the program's
reaction to faulted inboxes.
"""

from __future__ import annotations

import time as _time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DenseSharedMemory, Machine, RunResult
from repro.core.events import RequestBatch, SuperstepRecord
from repro.obs.metrics import active_metrics as _active_metrics
from repro.obs.tracer import active_tracer as _active_tracer

__all__ = ["CompiledProgram", "compile_program"]


def _check_no_injector(machine: Machine, action: str) -> None:
    injector = getattr(machine, "fault_injector", None)
    if injector is not None and not getattr(injector.plan, "is_null", False):
        raise ValueError(
            f"cannot {action} a compiled superstep schedule with an active "
            "fault injector: recorded supersteps replay what a fault-free "
            "execution sent, so the program's reaction to faulted inboxes "
            "cannot be reproduced (run the program on the trampoline instead)"
        )


class CompiledProgram:
    """A recorded superstep schedule plus the run's per-processor results.

    Build with :meth:`record` (or :func:`compile_program`); re-execute with
    :meth:`replay`.  Frames share the recording run's frozen batches —
    records are immutable once a run returns, so replays on any number of
    machines alias them safely.
    """

    __slots__ = ("frames", "results", "p", "uses_shared_memory")

    def __init__(
        self,
        frames: Sequence[Tuple[List[float], Any, Any, Any]],
        results: List[Any],
        p: int,
        uses_shared_memory: bool,
    ) -> None:
        self.frames = list(frames)
        self.results = results
        self.p = p
        self.uses_shared_memory = uses_shared_memory

    # ------------------------------------------------------------------
    @classmethod
    def record(
        cls,
        machine: Machine,
        program,
        *,
        args: Tuple = (),
        per_proc_args: Optional[Sequence[Tuple]] = None,
        nprocs: Optional[int] = None,
    ) -> Tuple["CompiledProgram", RunResult]:
        """Run ``program`` once on ``machine`` and capture its schedule.

        Returns ``(compiled, result)`` — the result is the recording run's
        own :class:`RunResult`, so the caller pays no extra execution for
        the capture.
        """
        _check_no_injector(machine, "record")
        res = machine.run(
            program, args=args, per_proc_args=per_proc_args, nprocs=nprocs
        )
        p = machine.params.p if nprocs is None else nprocs
        frames = [
            (list(r.work), r.msg_batch, r.read_batch, r.write_batch)
            for r in res.records
        ]
        return cls(frames, res.results, p, machine.uses_shared_memory), res

    # ------------------------------------------------------------------
    def replay(self, machine: Machine) -> RunResult:
        """Re-execute the recorded schedule on ``machine``.

        Each frame is re-priced under ``machine``'s cost model and its
        writes are applied to ``machine``'s shared memory (so post-run
        memory state matches a real execution); message delivery and read
        resolution are skipped — there is no running program to receive
        them, and the recorded ``results`` already hold what the original
        processors returned.  Replaying on the recording machine
        reproduces its ``RunResult`` bit-identically.
        """
        if machine.uses_shared_memory != self.uses_shared_memory:
            raise ValueError(
                "compiled program was recorded on a "
                f"{'shared-memory' if self.uses_shared_memory else 'message-passing'}"
                f" machine; {type(machine).__name__} is not one"
            )
        if machine.params.p < self.p:
            raise ValueError(
                f"machine has {machine.params.p} processors, recorded "
                f"program used {self.p}"
            )
        _check_no_injector(machine, "replay")
        tracer = _active_tracer()
        mreg = _active_metrics()
        observe = run_span = None
        if tracer is not None or mreg is not None:
            from repro.obs.instrument import make_superstep_observer

            if tracer is not None:
                run_span = tracer.begin(
                    "replay", cat="engine", track="machine",
                    machine=type(machine).__name__, p=self.p,
                    m=machine.params.m, L=machine.params.L, g=machine.params.g,
                )
                run_span.model_start = tracer.model_clock
            observe = make_superstep_observer(tracer, mreg, machine, self.p, run_span)
        records: List[SuperstepRecord] = []
        try:
            for index, (work, msg_b, read_b, write_b) in enumerate(self.frames):
                t0 = _time.perf_counter() if observe is not None else 0.0
                record = SuperstepRecord(
                    index=index,
                    work=work,
                    msg_batch=msg_b,
                    read_batch=read_b,
                    write_batch=write_b,
                )
                cost, breakdown, stats = machine._price(record)
                record.cost = cost
                record.breakdown = breakdown
                record.stats = stats
                records.append(record)
                self._apply_writes(machine, write_b)
                if observe is not None:
                    observe(record, t0, _time.perf_counter())
        finally:
            if run_span is not None:
                tracer.end(
                    run_span,
                    model_dur=tracer.model_clock - run_span.model_start,
                    supersteps=len(records),
                )
        return RunResult(
            params=machine.params, records=records, results=list(self.results)
        )

    @staticmethod
    def _apply_writes(machine: Machine, wb: RequestBatch) -> None:
        if not wb.n:
            return
        mem = machine.shared_memory
        if isinstance(mem, DenseSharedMemory) and isinstance(wb.addr, np.ndarray):
            mem.put(wb.addr, wb.value)
        else:
            vals = wb.value
            for i, a in enumerate(wb.addr_list()):
                mem[a] = None if vals is None else vals[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(p={self.p}, supersteps={len(self.frames)}, "
            f"shared_memory={self.uses_shared_memory})"
        )


def compile_program(
    machine: Machine,
    program,
    *,
    args: Tuple = (),
    per_proc_args: Optional[Sequence[Tuple]] = None,
    nprocs: Optional[int] = None,
) -> CompiledProgram:
    """Record ``program`` on ``machine`` and return the compiled schedule
    (discarding the recording run's result; use :meth:`CompiledProgram.record`
    to keep it)."""
    compiled, _ = CompiledProgram.record(
        machine, program, args=args, per_proc_args=per_proc_args, nprocs=nprocs
    )
    return compiled
