"""Executing schedules on the engine — the scheduler↔machine bridge.

The Section 6 senders produce :class:`~repro.scheduling.schedule.Schedule`
objects that the vectorized evaluator prices directly.  This module closes
the loop: :func:`route` turns a schedule into a real SPMD program, runs it
on any message-passing machine, verifies that every flit arrived, and
returns the engine's :class:`~repro.core.engine.RunResult` — whose cost
must agree with the evaluator (a property pinned by the test suite).

This is also the general *h-relation router* for the library: given a
machine and a relation, pick the right discipline automatically —
locally-limited machines need no scheduling (Proposition 6.1), globally-
limited ones get Unbalanced-Send.

The routing program is the engine's highest-volume workload (the 40k-flit
profile in docs/performance.md), so it is written in the columnar idiom
end-to-end.  Its one superstep is built once, from one stable
group-by-source sort of the schedule's flit columns
(:func:`_routing_superstep`): :func:`compile_schedule` assembles the
frozen batch and the delivery results from it, the live loop's
per-processor plan is three slices of it (slot, dest, payload), and the
reliable transport (:mod:`repro.faults.transport`) runs every data and
ack round through the same plan and the same :func:`_routing_program`,
its sequence numbers as payloads.  The program is a single
``ctx.send_many`` call per processor, and delivery is verified by one
histogram of the concatenated payload columns — no per-flit Python
objects anywhere.  Unless the run is audited or faulted,
:func:`execute_schedule` does not run that program on the live loop at
all: it replays the compiled superstep, which is bit-identical.  An
installed tracer, metrics registry or ledger observes that replay; it
does not change the path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from time import monotonic as _monotonic

from repro.core.compiled import CompiledProgram
from repro.core.engine import Machine, RunAborted, RunResult
from repro.core.events import MessageBatch
from repro.core.kernels import group_bounds, stable_group_order
from repro.obs.tracer import traced
from repro.scheduling.schedule import Schedule, expand_per_flit
from repro.scheduling.static_send import unbalanced_send
from repro.util.rng import SeedLike
from repro.workloads.relations import HRelation

__all__ = [
    "route",
    "route_reliable",
    "execute_schedule",
    "compile_schedule",
    "delivery_counts",
]


def _routing_superstep(
    sched: Schedule, payload: Optional[np.ndarray] = None
) -> MessageBatch:
    """The routing program's one superstep, frozen: the schedule's flit
    columns grouped by source with one stable sort, in flit order within
    each source, exactly as the live loop freezes them.  ``payload[k]`` is
    flit ``k``'s payload, its flit id when omitted (the transport passes
    its sequence numbers)."""
    rel = sched.rel
    flit_src = np.asarray(sched.flit_src, dtype=np.int64)
    order = stable_group_order(flit_src, rel.p - 1)
    return MessageBatch(
        flit_src[order],
        np.asarray(expand_per_flit(rel.dest, rel.length), dtype=np.int64)[order],
        np.ones(rel.n, dtype=np.int64),
        sched.flit_slots[order],
        np.ones(rel.n, dtype=bool),
        order if payload is None else payload[order],
    )


def _flit_plan(
    sched: Schedule, payload: Optional[np.ndarray] = None
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-processor ``(slots, dests, payloads)`` arguments of
    :func:`_routing_program`: slices of :func:`_routing_superstep`."""
    batch = _routing_superstep(sched, payload)
    bounds = group_bounds(batch.src, sched.rel.p).tolist()
    return [
        (batch.slot[s:e], batch.dest[s:e], batch.payload[s:e])
        for s, e in zip(bounds, bounds[1 : sched.rel.p + 1])
    ]


def _routing_program(ctx, slots, dests, payloads):
    ctx.send_many(dests, payloads=payloads, slots=slots)
    yield
    return ctx.receive().payloads


def compile_schedule(sched: Schedule) -> CompiledProgram:
    """Compile a schedule's routing program without executing it.

    The routing program is straight-line, so its one superstep is
    :func:`_routing_superstep`, and the delivery permutation (group the
    batch by destination) yields each processor's inbox payload slice,
    ``[]`` when nothing arrived, exactly what ``ctx.receive().payloads``
    returns on the live loop.  No processors, generators or arenas are
    built.  ``compile_schedule(sched).replay(machine)`` equals running the
    routing program on the live loop on any message-passing machine
    (pinned by ``tests/test_fused_kernel.py``); :func:`execute_schedule`
    replays it on one machine, and :meth:`CompiledProgram.replay_batch`
    prices it under a whole parameter batch.
    """
    p = sched.rel.p
    batch = _routing_superstep(sched)
    bounds = group_bounds(batch.dest, p).tolist()
    delivered = batch.payload[stable_group_order(batch.dest, p - 1)]
    results: List = [
        delivered[s:e] if e > s else [] for s, e in zip(bounds, bounds[1 : p + 1])
    ]
    return CompiledProgram(batch, results, p)


def _check_router(machine: Machine, rel: HRelation) -> None:
    if machine.uses_shared_memory:
        raise ValueError("schedules route point-to-point messages; use a BSP machine")
    if machine.params.p < rel.p:
        raise ValueError(
            f"machine has {machine.params.p} processors, relation needs {rel.p}"
        )


def execute_schedule(
    machine: Machine,
    sched: Schedule,
    *,
    audit: bool = False,
    deadline: Optional[float] = None,
) -> RunResult:
    """Run a schedule on ``machine`` as one superstep and verify delivery.

    Raises :class:`AssertionError`-free :class:`ValueError` if any flit is
    lost or duplicated (this would be an engine bug — the check is the
    library guarding its own invariants, not user error).  The routing
    program is straight-line, so unless the run is audited or faulted it
    is replayed from :func:`compile_schedule` whether or not a tracer,
    metrics registry or ledger is installed.  ``audit=True`` or an
    attached fault injector runs the program on the live loop instead;
    ``audit`` checks every barrier with the invariant auditor
    (:mod:`repro.faults.audit`).  ``deadline`` is an absolute
    ``time.monotonic()`` timestamp (the serving path's per-request
    deadline); an expired deadline raises
    :class:`~repro.core.engine.RunAborted` before superstep 0 on both
    paths — replay has no superstep loop to check mid-run.
    """
    rel = sched.rel
    _check_router(machine, rel)
    live = audit or machine.fault_injector is not None
    if not live and deadline is not None and _monotonic() > deadline:
        raise RunAborted(
            "run exceeded its absolute deadline at superstep 0",
            partial=RunResult(params=machine.params, records=[],
                              results=[None] * rel.p),
            superstep=0,
            reason="deadline",
        )
    with traced("execute_schedule", cat="scheduling", track="machine",
                p=rel.p, flits=rel.n):
        if live:
            res = machine.run(
                _routing_program, per_proc_args=_flit_plan(sched), nprocs=rel.p,
                audit=audit, deadline=deadline,
            )
        else:
            res = compile_schedule(sched).replay(machine)
    _verify_delivery(res, rel, machine)
    return res


def _verify_delivery(res: RunResult, rel: HRelation, machine: Machine) -> None:
    """Every flit id 0..n-1 arrived exactly once — checked by histogram
    (one ``bincount`` instead of the historical full sort)."""
    try:
        chunks = [np.asarray(received, dtype=np.int64) for received in res.results
                  if len(received)]
        got = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        # un-coercible payloads (e.g. CorruptedPayload markers) = not delivered
        got = np.zeros(0, dtype=np.int64)
    ok = got.size == rel.n
    if ok and rel.n:
        if int(got.min()) < 0 or int(got.max()) >= rel.n:
            ok = False
        else:
            ok = bool((np.bincount(got, minlength=rel.n) == 1).all())
    if not ok:
        injector = getattr(machine, "fault_injector", None)
        if injector is not None and not injector.plan.is_null:
            raise ValueError(
                f"delivery mismatch: {got.size} of {rel.n} flits arrived — the "
                "machine has an active fault injector; use route_reliable() "
                "(repro.faults.reliable_route) to route with retries"
            )
        raise ValueError(
            f"delivery mismatch: {got.size} of {rel.n} flits arrived"
        )


def delivery_counts(res: RunResult, p: int) -> np.ndarray:
    """Flits received per processor in an :func:`execute_schedule` run."""
    out = np.zeros(p, dtype=np.int64)
    for pid, received in enumerate(res.results):
        out[pid] = len(received)
    return out


def route(
    machine: Machine,
    rel: HRelation,
    *,
    epsilon: float = 0.15,
    seed: SeedLike = None,
    scheduler: Optional[Callable[..., Schedule]] = None,
    deadline: Optional[float] = None,
) -> Tuple[RunResult, Schedule]:
    """Route an h-relation on any message-passing machine.

    On a globally-limited machine the flits are scheduled with
    ``scheduler`` (default Unbalanced-Send, Theorem 6.2); on a
    locally-limited machine no scheduling is needed (Proposition 6.1) and
    everything is injected back-to-back.  Returns the engine result and
    the schedule used.  ``deadline`` (absolute ``time.monotonic()``) is
    forwarded to :func:`execute_schedule`.
    """
    if machine.params.m is not None:
        sch = (scheduler or unbalanced_send)(
            rel, machine.params.m, epsilon, seed=seed
        )
    else:
        from repro.scheduling.naive import naive_schedule

        sch = naive_schedule(rel)
    return execute_schedule(machine, sch, deadline=deadline), sch


def route_reliable(
    machine: Machine,
    rel: HRelation,
    *,
    epsilon: float = 0.15,
    seed: SeedLike = None,
    scheduler: Optional[Callable[..., Schedule]] = None,
    max_rounds: int = 64,
    backoff_base: int = 1,
    max_time: Optional[float] = None,
    audit: bool = False,
):
    """Route an h-relation with exactly-once delivery despite faults.

    Scheduler-side entry point for :func:`repro.faults.reliable_route`:
    the same automatic discipline choice as :func:`route` (Unbalanced-Send
    when the machine is globally limited, back-to-back otherwise), but with
    sequence numbers, acks and retransmission so every flit survives the
    machine's attached fault injector.  Retries are rescheduled against the
    bandwidth limit — they are priced like fresh traffic, never injected
    for free.  Returns a :class:`repro.faults.transport.TransportResult`.
    """
    from repro.faults.transport import reliable_route

    return reliable_route(
        machine,
        rel,
        epsilon=epsilon,
        seed=seed,
        scheduler=scheduler,
        max_rounds=max_rounds,
        backoff_base=backoff_base,
        max_time=max_time,
        audit=audit,
    )
