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

:meth:`CompiledProgram.replay_batch` is the one replay loop: it prices
each frame once for B machines (:meth:`~repro.core.engine.Machine.
_price_batch`), and :meth:`CompiledProgram.replay` is its batch of one.
The loop prices first and observes afterwards — an installed tracer,
metrics registry or ledger sees each trial's finished records, so an
observed replay runs the same pass as an unobserved one.

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
ablations (the sweep engine's main loop, one ``replay_batch`` pass per
group of compatible cells).  Replaying on a machine with a
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

from repro.core.engine import Machine, RunResult
from repro.core.events import SuperstepRecord
from repro.obs.instrument import open_run

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
    :meth:`replay` or :meth:`replay_batch`.  Frames share the recording run's frozen batches —
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
        """Re-execute the recorded schedule on ``machine``: the batch of one
        of :meth:`replay_batch`.

        Each frame is re-priced under ``machine``'s cost model and its
        writes are applied to ``machine``'s shared memory (so post-run
        memory state matches a real execution); message delivery and read
        resolution are skipped — there is no running program to receive
        them, and the recorded ``results`` already hold what the original
        processors returned.  Replaying on the recording machine
        reproduces its ``RunResult`` bit-identically.
        """
        return self.replay_batch((machine,))[0]

    def replay_batch(self, machines: Sequence[Machine]) -> List[RunResult]:
        """Replay the recorded schedule on every machine in one pass — the
        only replay loop.

        All machines must share one concrete model class, have enough
        processors, match the recording's memory kind and carry no fault
        injector; every machine is validated before any pricing or write
        application happens.  Each frame is priced by one
        :meth:`~repro.core.engine.Machine._price_batch` call over all
        machines, then its writes are applied per machine.  Element ``b``
        therefore equals ``replay(machines[b])`` exactly: the slot-charge
        kernel reduces each distinct ``(penalty, m)`` column once and
        gives every trial of it the scalars its batch of one computes.

        Observation follows the pass: each trial's finished records go to
        the installed tracer, metrics registry and ledger in order
        (:func:`repro.obs.instrument.open_run`, ``path="replay"``), which
        also sets its ``RunResult.ledger``.
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
            if mach.uses_shared_memory != self.uses_shared_memory:
                raise ValueError(
                    "compiled program was recorded on a "
                    f"{'shared-memory' if self.uses_shared_memory else 'message-passing'}"
                    f" machine; {type(mach).__name__} is not one"
                )
            if mach.params.p < self.p:
                raise ValueError(
                    f"machine has {mach.params.p} processors, recorded "
                    f"program used {self.p}"
                )
            _check_no_injector(mach, "replay")
        runs = [
            RunResult(params=mach.params, records=[], results=list(self.results))
            for mach in machines
        ]
        stamps = [_time.perf_counter()]  # frame boundaries, for the observers
        for index, (work, msg_b, read_b, write_b) in enumerate(self.frames):
            # every trial's record aliases the same frozen batches
            records = [
                SuperstepRecord(
                    index=index,
                    work=work,
                    msg_batch=msg_b,
                    read_batch=read_b,
                    write_batch=write_b,
                )
                for _ in machines
            ]
            priced = machines[0]._price_batch(records[0], machines)
            for run, record, (cost, breakdown, stats) in zip(runs, records, priced):
                record.cost, record.breakdown, record.stats = cost, breakdown, stats
                run.records.append(record)
            if write_b.n:
                for mach in machines:
                    mach._apply_writes(write_b)
            stamps.append(_time.perf_counter())
        for mach, run in zip(machines, runs):
            observation = open_run(mach, self.p, "replay", wall_start=stamps[0])
            if observation is None:
                break
            for record, t0, t1 in zip(run.records, stamps, stamps[1:]):
                observation.observe(record, t0, t1)
            run.ledger = observation.close(run.records, wall_end=stamps[-1])
        return runs

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
