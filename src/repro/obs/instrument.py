"""Span/metric construction for the engine barrier — the slow-path half.

The engine keeps its hot loop free of observability logic: when (and only
when) a tracer or registry is active it imports this module once per run
and calls :func:`make_superstep_observer`, whose closure does all span and
counter construction.  Nothing here is imported when observability is
disabled, and nothing here feeds back into pricing — model time is read
from the already-priced :class:`~repro.core.events.SuperstepRecord`.

Per-superstep output (tracer active):

* one ``superstep N`` span on the ``machine`` track — model clock
  positioned, carrying the full :class:`~repro.core.events.CostBreakdown`
  plus the pricing stats (incl. ``fault_*`` counters) as args;
* one wall-clock ``fused_superstep`` child span on the ``engine`` track
  covering the whole barrier (freeze, price, fault injection, delivery
  and audit);
* one span per *active* processor on its own ``proc N`` track, whose model
  duration is that processor's local bound ``max(work, sent, recvs)`` —
  the straggler view that makes imbalance visible in Perfetto.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = ["make_superstep_observer", "PROC_TRACK_LIMIT"]

#: Per-processor spans are emitted only up to this processor count — past
#: it a trace viewer is unusable anyway and the span volume dominates.
PROC_TRACK_LIMIT = 1024

#: Pricing-stat keys copied onto superstep spans when present.
_STAT_KEYS = (
    "h",
    "w",
    "n",
    "c_m",
    "span",
    "overloaded_slots",
    "max_slot_load",
    "kappa",
    "c_m_paper",
    "fault_injected",
    "fault_delivered",
    "fault_dropped",
    "fault_duplicated",
    "fault_corrupted",
    "fault_reordered",
)


def _superstep_args(record) -> dict:
    b = record.breakdown
    args = {
        "cost": record.cost,
        "messages": record.n_messages,
        "flits": record.total_flits,
    }
    if b is not None:
        args.update(
            work=b.work,
            local_band=b.local_band,
            global_band=b.global_band,
            latency=b.latency,
            contention=b.contention,
            dominant=b.dominant(),
        )
    stats = record.stats or {}
    for key in _STAT_KEYS:
        if key in stats:
            args[key] = stats[key]
    return args


def make_superstep_observer(
    tracer: Optional[Tracer],
    metrics: Optional[MetricsRegistry],
    machine,
    p: int,
    run_span: Optional[Span],
    ledger=None,
) -> Callable:
    """Build the per-superstep callback the engine invokes at each barrier.

    The callback signature is ``observe(record, t_start, t_end)`` where
    the ``t_*`` values are ``perf_counter`` stamps at the start of the
    record's freeze and at the end of the barrier.  ``ledger`` is an
    optional :class:`~repro.obs.ledger.LoadLedger` recording one load row
    per superstep from the already-priced record.
    """
    emit_procs = tracer is not None and p <= PROC_TRACK_LIMIT

    def observe(record, t_start: float, t_end: float) -> None:
        if tracer is not None:
            model_start = tracer.model_clock
            ss = tracer.add(
                f"superstep {record.index}",
                cat="superstep",
                track="machine",
                parent=run_span,
                wall_start=t_start,
                wall_dur=t_end - t_start,
                model_start=model_start,
                model_dur=record.cost,
                args=_superstep_args(record),
            )
            tracer.add("fused_superstep", cat="phase", track="engine",
                       parent=ss, wall_start=t_start, wall_dur=t_end - t_start)
            if emit_procs:
                sends = record.sends_by_proc(p)
                recvs = record.recvs_by_proc(p)
                work = record.work
                for pid in range(p):
                    w = float(work[pid]) if pid < len(work) else 0.0
                    s, r = int(sends[pid]), int(recvs[pid])
                    local = max(w, float(s), float(r))
                    if local <= 0.0:
                        continue  # idle processor: no span, keep traces lean
                    tracer.add(
                        f"s{record.index}",
                        cat="proc",
                        track=f"proc {pid}",
                        parent=ss,
                        model_start=model_start,
                        model_dur=local,
                        args={"work": w, "sent": s, "recv": r},
                    )
            tracer.model_clock = model_start + record.cost
        if ledger is not None:
            ledger.record(record, p)
        if metrics is not None:
            metrics.counter("engine.supersteps").inc()
            metrics.counter("engine.messages").inc(record.n_messages)
            metrics.counter("engine.flits").inc(record.total_flits)
            metrics.counter("engine.reads").inc(record.n_reads)
            metrics.counter("engine.writes").inc(record.n_writes)
            metrics.counter("engine.model_time").inc(record.cost)
            metrics.histogram("engine.superstep_cost").observe(record.cost)

    return observe
