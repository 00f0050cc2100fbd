"""Reliable transport over a faulty bandwidth-limited machine.

:func:`reliable_route` routes an h-relation on a machine whose network
drops, duplicates, reorders or corrupts messages (and whose processors may
stall or crash), and guarantees **exactly-once** delivery of every flit:

* every flit carries its global flit index as a *sequence number*;
* receivers validate each arrival (a corrupted sequence number is
  detectable — see :class:`~repro.faults.plan.CorruptedPayload`) and
  discard duplicates against the set of already-delivered flits;
* receivers **acknowledge** every valid arrival in a follow-up superstep;
  acks travel through the same faulty network and are themselves scheduled
  against the bandwidth limit;
* senders retransmit every unacknowledged flit after an exponential
  backoff (``backoff_base * 2^round`` idle supersteps), and each retry
  round is re-admitted through the Unbalanced-Send discipline — the retry
  relation is scheduled exactly like a fresh static routing problem, so
  re-injections are priced against the aggregate limit ``m_t`` like any
  other traffic.  **There are no free re-injections**: summing
  ``total_flits`` over the data rounds' records always equals
  ``rel.n + retried``.

Every data and ack round is one superstep of the routing program of
:mod:`repro.scheduling.execute`, run on the live loop through the same
per-processor plan (``_flit_plan``, slices of the routing superstep)
with sequence numbers as payloads.  The protocol's cost is the paper's
own accounting: the sum of the engine times of every data and ack
superstep plus the idle backoff supersteps (an empty BSP superstep costs
``L``).  On a clean machine the round-0 run equals
:func:`repro.scheduling.execute.route` in records, frozen columns and
results, so ``fault_free_time`` (the round-0 engine time) makes
``overhead`` an exact resilience price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.engine import Machine, RunResult
from repro.core.events import SuperstepRecord
from repro.obs.metrics import active_metrics
from repro.obs.tracer import active_tracer
from repro.scheduling.execute import _flit_plan, _routing_program
from repro.scheduling.naive import naive_schedule
from repro.scheduling.schedule import expand_per_flit
from repro.scheduling.static_send import unbalanced_send
from repro.util.rng import SeedLike, as_generator
from repro.workloads.relations import HRelation

__all__ = ["TransportError", "TransportResult", "reliable_route"]

_I64 = np.int64


class TransportError(RuntimeError):
    """The reliable transport could not deliver every flit within its
    retry budget.  ``pending`` holds the undelivered flit ids and
    ``result`` the partial :class:`TransportResult`."""

    def __init__(self, message: str, *, pending: np.ndarray, result: "TransportResult") -> None:
        super().__init__(message)
        self.pending = pending
        self.result = result


@dataclass
class TransportResult:
    """Outcome of a :func:`reliable_route` protocol run.

    ``time`` is total model time (data + ack + backoff supersteps);
    ``fault_free_time`` is the round-0 data superstep alone, which is
    exactly what the same schedule costs on a fault-free machine, so
    ``overhead`` prices the resilience.
    """

    n: int
    rounds: int
    time: float
    fault_free_time: float
    delivered: int
    retried: int
    dropped: int
    duplicates: int
    corrupted: int
    backoff_steps: int
    data_runs: List[RunResult] = field(default_factory=list)
    ack_runs: List[RunResult] = field(default_factory=list)

    @property
    def overhead(self) -> float:
        """Resilience overhead: protocol time over the fault-free time."""
        if self.fault_free_time == 0:
            return float("nan")
        return self.time / self.fault_free_time

    @property
    def exactly_once(self) -> bool:
        """True when every flit was delivered exactly once."""
        return self.delivered == self.n

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        return {
            "flits": self.n,
            "rounds": self.rounds,
            "time": self.time,
            "fault_free_time": self.fault_free_time,
            "overhead": self.overhead,
            "delivered": self.delivered,
            "retried": self.retried,
            "dropped": self.dropped,
            "duplicates": self.duplicates,
            "corrupted": self.corrupted,
            "backoff_steps": self.backoff_steps,
            "exactly_once": self.exactly_once,
        }


def _run_flits(
    machine: Machine,
    p: int,
    src: np.ndarray,
    dest: np.ndarray,
    seq_ids: np.ndarray,
    scheduler: Callable,
    epsilon: float,
    rng: np.random.Generator,
    max_time: Optional[float],
    audit: bool,
) -> RunResult:
    """Schedule one round's flits against the bandwidth limit and run the
    routing program on them, sequence numbers as payloads."""
    rel = HRelation(p=p, src=src, dest=dest, length=np.ones(src.size, dtype=_I64))
    if machine.params.m is not None:
        sched = scheduler(rel, machine.params.m, epsilon, seed=rng)
    else:
        sched = naive_schedule(rel)
    return machine.run(
        _routing_program, per_proc_args=_flit_plan(sched, seq_ids), nprocs=p,
        max_time=max_time, audit=audit,
    )


def _valid_arrivals(received) -> Tuple[np.ndarray, int]:
    """Split one inbox's payload column into (valid seq ids, #corrupted)."""
    if isinstance(received, np.ndarray) and received.dtype.kind in "iu":
        arr = received.astype(_I64, copy=False)
        bad = arr < 0
        return arr[~bad], int(bad.sum())
    ids: List[int] = []
    corrupted = 0
    for v in received:
        if isinstance(v, (int, np.integer)) and v >= 0:
            ids.append(int(v))
        else:
            corrupted += 1
    return np.asarray(ids, dtype=_I64), corrupted


def _idle_superstep_cost(machine: Machine, p: int) -> float:
    """Model time of one empty (backoff) superstep on this machine."""
    empty = SuperstepRecord(index=0, work=[0.0] * p)
    cost, _, _ = machine._price(empty)
    return cost


def reliable_route(
    machine: Machine,
    rel: HRelation,
    *,
    epsilon: float = 0.15,
    seed: SeedLike = None,
    scheduler: Optional[Callable] = None,
    max_rounds: int = 64,
    backoff_base: int = 1,
    max_time: Optional[float] = None,
    audit: bool = False,
) -> TransportResult:
    """Route ``rel`` with exactly-once delivery despite injected faults.

    Parameters mirror :func:`repro.scheduling.execute.route`; additionally
    ``max_rounds`` bounds the retry loop (raising :class:`TransportError`
    with the pending flits if exhausted), ``backoff_base`` scales the
    exponential backoff, and ``max_time``/``audit`` are forwarded to every
    engine run.  The machine's attached fault injector (if any) supplies
    the faults; without one the protocol completes in a single round.
    """
    if machine.uses_shared_memory:
        raise ValueError("reliable transport routes point-to-point messages; use a BSP machine")
    p = rel.p
    if machine.params.p < p:
        raise ValueError(f"machine has {machine.params.p} processors, relation needs {p}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if backoff_base < 1:
        raise ValueError(f"backoff_base must be >= 1, got {backoff_base}")
    rng = as_generator(seed)
    if scheduler is None:
        scheduler = unbalanced_send

    n = rel.n
    flit_src = expand_per_flit(rel.src, rel.length).astype(_I64, copy=False)
    flit_dest = expand_per_flit(rel.dest, rel.length).astype(_I64, copy=False)
    delivered_mask = np.zeros(n, dtype=bool)  # receiver-side dedup ledger
    acked_mask = np.zeros(n, dtype=bool)  # sender-side retransmit ledger
    pending = np.arange(n, dtype=_I64)

    result = TransportResult(
        n=n, rounds=0, time=0.0, fault_free_time=0.0,
        delivered=0, retried=0, dropped=0, duplicates=0, corrupted=0,
        backoff_steps=0,
    )
    if n == 0:
        return result
    idle_cost = _idle_superstep_cost(machine, p)
    tracer = active_tracer()

    for r in range(max_rounds):
        result.rounds = r + 1
        if r > 0:
            result.retried += int(pending.size)
        round_span = (
            tracer.begin(
                f"round {r}", cat="transport", track="transport",
                pending=int(pending.size), retry=r > 0,
            )
            if tracer is not None
            else None
        )
        # -- data superstep: pending flits, rescheduled against m ----------
        res = _run_flits(
            machine, p, flit_src[pending], flit_dest[pending], pending,
            scheduler, epsilon, rng, max_time, audit,
        )
        result.data_runs.append(res)
        result.time += res.time
        if r == 0:
            result.fault_free_time = res.time
        result.dropped += int(sum(rec.stats.get("fault_dropped", 0.0) for rec in res.records))
        # -- receiver side: validate, dedup, build the ack batch -----------
        ack_src: List[np.ndarray] = []
        ack_ids: List[np.ndarray] = []
        for pid, received in enumerate(res.results):
            ids, corrupt = _valid_arrivals(received)
            result.corrupted += corrupt
            if not ids.size:
                continue
            if np.any(flit_dest[ids] != pid):
                raise AssertionError(
                    f"transport invariant broken: processor {pid} received a "
                    "flit addressed elsewhere (engine bug)"
                )
            uniq = np.unique(ids)
            fresh = uniq[~delivered_mask[uniq]]
            result.duplicates += int(ids.size - fresh.size)
            delivered_mask[fresh] = True
            # ack *every* valid arrival (duplicates included): a duplicate
            # means the original ack was lost, so the sender needs another
            ack_src.append(np.full(ids.size, pid, dtype=_I64))
            ack_ids.append(ids)
        # -- ack superstep: through the same faulty, priced network --------
        if ack_src:
            a_src = np.concatenate(ack_src)
            a_ids = np.concatenate(ack_ids)
            ack_res = _run_flits(
                machine, p, a_src, flit_src[a_ids], a_ids,
                scheduler, epsilon, rng, max_time, audit,
            )
            result.ack_runs.append(ack_res)
            result.time += ack_res.time
            result.dropped += int(
                sum(rec.stats.get("fault_dropped", 0.0) for rec in ack_res.records)
            )
            for received in ack_res.results:
                ids, corrupt = _valid_arrivals(received)
                result.corrupted += corrupt
                if ids.size:
                    acked_mask[ids] = True
        pending = np.nonzero(~acked_mask)[0].astype(_I64)
        if not pending.size:
            if round_span is not None:
                tracer.end(round_span, unacked=0)
            break
        # -- exponential backoff before the retry round --------------------
        steps = backoff_base * (2**r)
        result.backoff_steps += steps
        result.time += steps * idle_cost
        if round_span is not None:
            # idle supersteps occupy model time too: advance the traced
            # clock so the next round's runs start after the backoff
            backoff_model = steps * idle_cost
            tracer.add(
                "backoff", cat="transport", track="transport",
                parent=round_span, model_start=tracer.model_clock,
                model_dur=backoff_model, args={"steps": steps},
            )
            tracer.model_clock += backoff_model
            tracer.end(round_span, unacked=int(pending.size), backoff_steps=steps)
    result.delivered = int(delivered_mask.sum())
    metrics = active_metrics()
    if metrics is not None:
        metrics.counter("transport.runs").inc()
        metrics.counter("transport.rounds").inc(result.rounds)
        metrics.counter("transport.retried").inc(result.retried)
        metrics.counter("transport.dropped").inc(result.dropped)
        metrics.counter("transport.duplicates").inc(result.duplicates)
        metrics.counter("transport.corrupted").inc(result.corrupted)
        metrics.counter("transport.backoff_steps").inc(result.backoff_steps)
        if result.fault_free_time > 0:
            metrics.gauge("transport.last_overhead").set(result.overhead)
    if pending.size:
        raise TransportError(
            f"{pending.size} of {n} flits still unacknowledged after "
            f"{max_rounds} rounds",
            pending=pending,
            result=result,
        )
    return result
