"""Span/metric construction for the engine's runs — the slow-path half.

Both execution paths observe through :func:`open_run`: the live barrier
loop of :meth:`~repro.core.engine.Machine.run` (``path="loop"``) and the
replay loop of :meth:`~repro.core.compiled.CompiledProgram.replay_batch`
(``path="replay"``).  With no tracer, metrics registry or ledger
installed it returns ``None`` after three module-global reads, and the
caller skips observation entirely.  Otherwise the returned
:class:`RunObservation` opens the run — the ``run`` span, the ledger's
run header — and carries the per-superstep callback built by
:func:`make_superstep_observer`; :meth:`RunObservation.close` ends the
span and hands back the run's ledger view.  Nothing here feeds back into
pricing: model time is read from the already-priced
:class:`~repro.core.events.SuperstepRecord`, so looking never changes
the path or the result.  The live loop observes each record at its
barrier; replay observes each trial's finished records after the pass,
trial by trial in order, stamped with the pass's per-frame wall clock.

Per-run output (tracer active): one ``run`` span on the ``machine``
track with a ``path`` arg of ``loop`` or ``replay``.

Per-superstep output (tracer active):

* one ``superstep N`` span on the ``machine`` track — model clock
  positioned, carrying the full :class:`~repro.core.events.CostBreakdown`
  plus the pricing stats (incl. ``fault_*`` counters) as args;
* one wall-clock ``fused_superstep`` child span on the ``engine`` track
  covering the whole barrier (freeze, price, fault injection, delivery
  and audit on the loop; pricing and write application on replay);
* one span per *active* processor on its own ``proc N`` track, whose model
  duration is that processor's local bound ``max(work, sent, recvs)`` —
  the straggler view that makes imbalance visible in Perfetto.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.ledger import active_ledger
from repro.obs.metrics import MetricsRegistry, active_metrics
from repro.obs.tracer import Span, Tracer, active_tracer

__all__ = ["RunObservation", "open_run", "make_superstep_observer", "PROC_TRACK_LIMIT"]

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
    """Build the per-superstep callback of one observed run.

    The callback signature is ``observe(record, t_start, t_end)`` where
    the ``t_*`` values are ``perf_counter`` stamps at the start of the
    record's freeze and at the end of the barrier (on replay: the start
    and end of the frame's pricing in the pass).  ``ledger`` is an
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


class RunObservation:
    """One run under observation: its ``run`` span, its ledger rows and
    the per-superstep callback :attr:`observe` (``observe(record,
    t_start, t_end)``, see :func:`make_superstep_observer`)."""

    __slots__ = ("observe", "_tracer", "_span", "_ledger", "_ledger_start")

    def __init__(self, tracer, metrics, ledger, machine, p: int, path: str,
                 wall_start: Optional[float]) -> None:
        params = machine.params
        span = None
        if tracer is not None:
            span = tracer.begin(
                "run", cat="engine", track="machine",
                machine=type(machine).__name__, p=p,
                m=params.m, L=params.L, g=params.g, path=path,
            )
            if wall_start is not None:
                span.wall_start = wall_start
            span.model_start = tracer.model_clock
        self._tracer, self._span, self._ledger = tracer, span, ledger
        self._ledger_start = (
            ledger.begin_run(type(machine).__name__, params) if ledger is not None else 0
        )
        self.observe = make_superstep_observer(tracer, metrics, machine, p, span, ledger=ledger)

    def close(self, records, wall_end: Optional[float] = None):
        """End the ``run`` span (at ``wall_end`` when given, else now) and
        return the run's :class:`~repro.obs.ledger.LedgerView`, or ``None``
        when no ledger is installed.

        ``records`` are the run's priced records; the span's model
        duration is their costs summed in order, exactly as
        :attr:`RunResult.time <repro.core.engine.RunResult.time>` sums
        them (not a difference of two cumulative clock readings)."""
        span = self._span
        if span is not None:
            self._tracer.end(span, model_dur=sum(r.cost for r in records),
                             supersteps=len(records))
            if wall_end is not None:
                span.wall_dur = wall_end - span.wall_start
        return self._ledger.view(self._ledger_start) if self._ledger is not None else None


def open_run(machine, p: int, path: str,
             wall_start: Optional[float] = None) -> Optional[RunObservation]:
    """Open the observation of one run of ``machine`` on ``p`` processors,
    or return ``None`` when no tracer, registry or ledger is installed.

    ``path`` names the execution path on the ``run`` span (``"loop"`` or
    ``"replay"``); ``wall_start`` back-dates the span to when a replay
    pass began, since replay is observed after the pass.
    """
    tracer, metrics, ledger = active_tracer(), active_metrics(), active_ledger()
    if tracer is None and metrics is None and ledger is None:
        return None
    return RunObservation(tracer, metrics, ledger, machine, p, path, wall_start)
