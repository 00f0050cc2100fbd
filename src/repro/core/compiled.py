"""Compiled routing superstep: price a frozen superstep without running it.

The Section 6 routing program is straight-line: every processor issues
one ``send_many`` computed from the schedule, independent of anything it
receives, then meets one barrier.  Its whole execution is therefore one
frozen message-passing :class:`~repro.core.events.MessageBatch` plus
the per-processor inboxes that batch delivers.
:func:`repro.scheduling.execute.compile_schedule` assembles both straight
from a schedule's flit columns, and :class:`CompiledProgram` holds them.
Replaying it re-prices that one superstep under any message-passing
machine's cost model, skipping generator dispatch, per-call validation,
arena assembly and delivery.

:meth:`CompiledProgram.replay_batch` is the one replay pass: it prices
the superstep once for B machines (:meth:`~repro.core.engine.Machine.
_price_batch`), and :meth:`CompiledProgram.replay` is its batch of one.
The pass prices first and observes afterwards: an installed tracer,
metrics registry or ledger sees each trial's finished record, so an
observed replay runs the same pass as an unobserved one.

Validity across machines
------------------------
``replay(machine)`` re-prices the schedule under ``machine``'s cost
model, so one compilation supports penalty-family and ``(g, m, L)``
ablations (``pricing_ablation`` prices its whole grid in one
``replay_batch`` pass).  Slot exclusivity and every other model rule are
re-checked by the target machine's pricing, so an invalid transplant
raises :class:`~repro.core.engine.ModelViolation` rather than mispricing.
Fault injection is refused: the compiled results are a fault-free
delivery, and replay cannot re-run the program's reaction to faulted
inboxes (``execute_schedule`` runs a faulted machine on the live loop).
"""

from __future__ import annotations

import time as _time
from typing import Any, List, Sequence

from repro.core.engine import Machine, RunResult
from repro.core.events import MessageBatch, SuperstepRecord
from repro.obs.instrument import open_run

__all__ = ["CompiledProgram"]


class CompiledProgram:
    """One frozen message-passing superstep plus its delivery results.

    ``batch`` is the superstep's sent messages, ``results[pid]`` what
    processor ``pid`` received and ``p`` the processors it spans.  Every
    replay's record aliases the same ``batch`` while it is priced and
    observed, then releases it like a live barrier does: a replayed
    :class:`~repro.core.engine.RunResult` holds prices and counts, and
    ``batch`` is where a replayed superstep's columns are read.
    """

    __slots__ = ("batch", "results", "p")

    def __init__(self, batch: MessageBatch, results: List[Any], p: int) -> None:
        self.batch = batch
        self.results = results
        self.p = p

    def replay(self, machine: Machine) -> RunResult:
        """Price the superstep on ``machine``: the batch of one of
        :meth:`replay_batch`.

        No program runs and nothing is delivered; ``results`` already hold
        what each processor received.  ``compile_schedule(sched).replay(
        machine)`` equals running the routing program on the live loop.
        """
        return self.replay_batch((machine,))[0]

    def replay_batch(self, machines: Sequence[Machine]) -> List[RunResult]:
        """Price the superstep on every machine in one pass.

        All machines must be message-passing machines of one concrete
        model class, with enough processors and no fault injector; every
        machine is validated before anything is priced.  One
        :meth:`~repro.core.engine.Machine._price_batch` call prices all of
        them, so element ``b`` equals ``replay(machines[b])`` exactly: the
        slot-charge kernel reduces each distinct ``(penalty, m)`` column
        once and gives every trial of it the scalars its batch of one
        computes.

        Observation follows the pass: each trial's finished record goes
        to the installed tracer, metrics registry and ledger in order
        (:func:`repro.obs.instrument.open_run`, ``path="replay"``), which
        also sets its ``RunResult.ledger``.  Then every record releases
        its batch, as at a live barrier.
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
            if mach.uses_shared_memory:
                raise ValueError(
                    "a compiled superstep routes messages on a message-passing "
                    f"machine; {type(mach).__name__} is not one"
                )
            if mach.params.p < self.p:
                raise ValueError(
                    f"machine has {mach.params.p} processors, compiled "
                    f"superstep uses {self.p}"
                )
            injector = mach.fault_injector
            if injector is not None and not injector.plan.is_null:
                raise ValueError(
                    "cannot replay a compiled superstep with an active fault "
                    "injector: its results are a fault-free delivery, so the "
                    "program's reaction to faulted inboxes cannot be "
                    "reproduced (run the program on the live loop instead)"
                )
        start = _time.perf_counter()
        work = [0.0] * self.p
        records = [
            SuperstepRecord(index=0, work=work, msg_batch=self.batch)
            for _ in machines
        ]
        priced = machines[0]._price_batch(records[0], machines)
        runs = []
        for mach, record, (cost, breakdown, stats) in zip(machines, records, priced):
            record.cost, record.breakdown, record.stats = cost, breakdown, stats
            runs.append(RunResult(params=mach.params, records=[record],
                                  results=list(self.results)))
        end = _time.perf_counter()
        for mach, run in zip(machines, runs):
            observation = open_run(mach, self.p, "replay", wall_start=start)
            if observation is None:
                break
            observation.observe(run.records[0], start, end)
            run.ledger = observation.close(run.records, wall_end=end)
        for record in records:
            record.release()
        return runs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledProgram(p={self.p}, messages={self.batch.n})"
