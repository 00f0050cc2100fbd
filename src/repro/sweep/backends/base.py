"""What both sweep placements promise, and their shared per-trial core.

A backend is the piece of :func:`repro.sweep.run_sweep` that executes
trials — ``serial`` in-process, ``pool-steal`` on a work-stealing process
pool, chosen by ``jobs`` — while the runner keeps everything that makes
results deterministic: task expansion, per-trial seed derivation,
task-order reassembly, and task-order metrics merging.  Both backends
honor one contract:

* ``run(tasks, *, jobs, collect_metrics, mode, retries, collect_spans,
  collect_ledger)`` returns ``(outcomes, stats)`` where ``outcomes[i]``
  is the :class:`TaskOutcome` of ``tasks[i]`` — **task order, always**,
  no matter which worker finished first;
* an outcome is ``("ok", exec_payload, attempts)`` or
  ``("err", error_payload, attempts)``; under ``mode="raise"`` a backend
  may stop early and leave trailing ``None`` entries (the runner raises
  at the first ``"err"`` before ever reading them);
* trial functions are pure and carry their own derived seed, so a
  backend can execute them anywhere, in any order, and the assembled
  result is bit-identical to the serial run;
* ``stats`` is the backend's execution report (worker task counts,
  steals, worker deaths) — it feeds the telemetry
  ``backend`` block and tracer span args, **never** the active
  :class:`~repro.obs.metrics.MetricsRegistry`, whose dumps must stay
  bit-identical across backends and job counts.

The per-trial execution core (:func:`execute_task`, :func:`attempt_task`,
:func:`error_payload_for`) lives here so every backend — and every
worker process — runs trials through exactly the same code path:
metrics/tracer/ledger scratch capture, wall timing, and the
retry-until-skip error policy.  Observability capture is uniform across
backends: a trial always runs against *scratch* instruments (masking
whatever is installed in the executing process) and ships the dumps back
in its payload; the runner splices spans and merges ledger/metric dumps
in task order, so the assembled trace and ledgers are identical whether
the trial ran in-process or on the pool.
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import ExitStack
from typing import Any, Dict, Optional, Tuple

from repro.sweep.spec import TrialTask
from repro.util.rng import describe_seed

__all__ = [
    "TaskOutcome",
    "BackendStats",
    "execute_task",
    "attempt_task",
    "error_payload_for",
    "describe_params",
    "new_stats",
]

#: ("ok", exec_payload, attempts) | ("err", error_payload, attempts)
TaskOutcome = Tuple[str, Any, int]

#: the backend execution report consumed by SweepResult.telemetry()
BackendStats = Dict[str, Any]


def new_stats(name: str, workers: int) -> BackendStats:
    """A fresh stats block with the keys every backend reports."""
    return {
        "name": name,
        "workers": workers,
        "tasks_per_worker": {},  # pid -> executed task count
        "steals": 0,
        "worker_deaths": 0,
    }


def describe_params(params: dict) -> str:
    """Compact, log-safe parameter description (arrays and relations are
    named by type/size instead of dumped)."""
    parts = []
    for k, v in params.items():
        r = repr(v)
        if len(r) > 60:
            size = getattr(v, "n", None) or getattr(v, "size", None)
            r = f"<{type(v).__name__}{f' n={size}' if size is not None else ''}>"
        parts.append(f"{k}={r}")
    return ", ".join(parts)


def execute_task(
    task: TrialTask,
    collect_metrics: bool = False,
    collect_spans: bool = False,
    collect_ledger: Optional[bool] = None,
) -> Tuple[Any, float, int, Optional[dict], Optional[dict], Optional[dict]]:
    """Run one trial and time it.

    Returns ``(value, wall_s, pid, metrics, spans, ledger)``.  Each
    ``collect_*`` flag runs the trial against a *fresh scratch*
    instrument — a :class:`~repro.obs.metrics.MetricsRegistry`, a
    :class:`~repro.obs.tracer.Tracer`, a
    :class:`~repro.obs.ledger.LoadLedger` — installed for the trial's
    duration (masking whatever the executing process had active), whose
    dump ships back as payload elements four through six (``None`` when
    not collected).  The runner merges those dumps in task order on every
    backend, so ``jobs=N`` aggregates, span trees, and ledgers are
    **bit-identical** to ``jobs=1`` — same per-trial dumps, same merge
    order, no dependence on float-summation association or worker
    scheduling.  ``collect_ledger`` is ``None`` (no ledger) or the
    ``per_proc`` of the installed ledger, which the scratch ledger
    copies, so the per-processor columns the installed ledger keeps
    survive the merge.
    """
    delta: Optional[dict] = None
    spans: Optional[dict] = None
    ledger_dump: Optional[dict] = None
    with ExitStack() as stack:
        if collect_metrics:
            from repro.obs.metrics import MetricsRegistry, metrics_scope

            scratch_m = stack.enter_context(metrics_scope(MetricsRegistry()))
        if collect_spans:
            from repro.obs.tracer import Tracer, export_spans, tracing

            scratch_t = stack.enter_context(tracing(Tracer()))
        if collect_ledger is not None:
            from repro.obs.ledger import LoadLedger, ledger_scope

            scratch_l = stack.enter_context(
                ledger_scope(LoadLedger(per_proc=collect_ledger))
            )
        t0 = time.perf_counter()
        value = task.run()
        wall = time.perf_counter() - t0
        if collect_metrics:
            delta = scratch_m.to_dict()
        if collect_spans:
            spans = export_spans(scratch_t)
        if collect_ledger is not None:
            ledger_dump = scratch_l.to_dict()
    return value, wall, os.getpid(), delta, spans, ledger_dump


def error_payload_for(
    task: TrialTask, exc: BaseException, with_traceback: bool = True
) -> Tuple[str, str, str, str, str, int]:
    """Everything the parent needs to raise or record a failed trial."""
    return (
        task.label,
        describe_params(task.params),
        describe_seed(task.seed),
        repr(exc),
        traceback.format_exc() if with_traceback else "",
        os.getpid(),
    )


def attempt_task(
    task: TrialTask,
    collect_metrics: bool,
    mode: str,
    retries: int,
    collect_spans: bool = False,
    collect_ledger: Optional[bool] = None,
) -> Tuple[str, Any, int, Optional[BaseException]]:
    """Execute one trial under the error policy.

    Returns ``(status, payload, attempts, exc)``: ``("ok", exec_payload,
    n, None)`` or ``("err", error_payload, n, exc)``.  Under ``"retry"``
    the trial re-runs (same task, same derived seed — retries target
    *environmental* failures; a deterministic raise fails every attempt)
    up to ``retries`` more times before the error is returned.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            payload = execute_task(
                task, collect_metrics, collect_spans, collect_ledger
            )
            return "ok", payload, attempts, None
        except Exception as exc:  # noqa: BLE001 - captured as data
            if mode == "retry" and attempts <= retries:
                continue
            return "err", error_payload_for(task, exc), attempts, exc
