"""Sweep execution on the placement ``jobs`` picks, with a bit-identical
contract.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
pure, independently seeded tasks and runs each through one per-trial
function, :func:`attempt_task`: in this process (``serial``) for
``jobs=1`` or at most one task, on the forked worker pool of
:mod:`repro.sweep.pool` (``pool-steal``) otherwise.  The runner keeps
every determinism guarantee on either placement:

* **ordered reassembly** — outcomes are taken in task order, so
  ``results[i]`` always belongs to ``tasks()[i]`` no matter which worker
  finished first: the pool is *bit-identical* to the in-process run
  (trial functions are pure and carry their own derived seed);
* **task-order metrics merge, span splice and ledger merge** — every
  trial, in process or on the pool, runs against scratch observability
  instruments and returns their dumps in its payload; the runner merges
  metric dumps, builds the ``trial`` span and splices the trial's real
  spans under it, and merges ledger rows into the active
  :class:`~repro.obs.ledger.LoadLedger`, in task order — so metrics,
  traces and ledgers are bit-identical at every job count;
* **worker-side exception capture** — a failing trial is caught where it
  ran and re-raised in the parent as :class:`TrialExecutionError` naming
  the trial's label, parameters, and exact seed derivation (a
  ``SeedSequence(entropy, spawn_key=...)`` expression that replays it in
  isolation), with the worker traceback attached — never an opaque
  pool-level error;
* **error policy** — ``on_error="raise"`` (the default) aborts the sweep
  on the first failing trial; ``"skip"`` records the failure in telemetry
  (``results[i] is None``, ``status="skipped"``) and keeps going;
  ``"retry:N"`` re-attempts a failed trial up to ``N`` more times before
  skipping it.  Failure accounting is **per task**: on the pool even a
  hard worker-process death skips exactly the one trial that worker
  held — the pool forks a replacement and hands it the rest.

``jobs=0`` / ``jobs=None`` auto-sizes to the machine's usable CPU count.
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import ExitStack
from typing import Any, List, Optional

import numpy as np

from repro.obs.ledger import LoadLedger, active_ledger, ledger_scope
from repro.obs.metrics import MetricsRegistry, active_metrics, metrics_scope
from repro.obs.tracer import Tracer, active_tracer, export_spans, splice_spans, tracing
from repro.sweep.spec import SweepSpec, TrialTask
from repro.sweep.telemetry import SweepResult, TrialRecord
from repro.util.rng import describe_seed

__all__ = ["run_sweep", "resolve_jobs", "parse_on_error", "TrialExecutionError"]


class TrialExecutionError(RuntimeError):
    """A sweep trial raised; carries everything needed to replay it."""

    def __init__(
        self,
        label: str,
        params_desc: str,
        seed_desc: str,
        cause_repr: str,
        worker_traceback: str = "",
    ) -> None:
        self.label = label
        self.params_desc = params_desc
        self.seed_desc = seed_desc
        self.cause_repr = cause_repr
        self.worker_traceback = worker_traceback
        message = (
            f"sweep trial {label} failed: {cause_repr}\n"
            f"  params: {params_desc}\n"
            f"  seed:   {seed_desc}"
        )
        if worker_traceback:
            message += f"\n  worker traceback:\n{worker_traceback}"
        super().__init__(message)


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None``/``0`` → usable CPU count; negative is an error."""
    if jobs is None or jobs == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def parse_on_error(policy: str):
    """Validate an error policy; returns ``(mode, retries)``.

    ``"raise"`` → ``("raise", 0)``; ``"skip"`` → ``("skip", 0)``;
    ``"retry:N"`` (N ≥ 1) → ``("retry", N)`` — N *additional* attempts
    after the first failure, then the trial is skipped and recorded.
    """
    if policy == "raise":
        return "raise", 0
    if policy == "skip":
        return "skip", 0
    if isinstance(policy, str) and policy.startswith("retry:"):
        try:
            n = int(policy[len("retry:"):])
        except ValueError:
            n = 0
        if n >= 1:
            return "retry", n
    raise ValueError(
        f"on_error must be 'raise', 'skip' or 'retry:N' (N >= 1), got {policy!r}"
    )


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


def error_payload(task: TrialTask, exc: BaseException, tb: str, pid: int) -> tuple:
    """Everything the parent needs to raise or record a failed trial:
    ``(label, params, seed, repr(exc), traceback, pid)``."""
    return (
        task.label,
        describe_params(task.params),
        describe_seed(task.seed),
        repr(exc),
        tb,
        pid,
    )


def _execute(task: TrialTask, collect: tuple) -> tuple:
    """Run one trial and time it.

    Returns ``(value, wall_s, pid, metrics, spans, ledger)``.  ``collect``
    is ``(metrics, spans, ledger)``: each true entry runs the trial
    against a *fresh scratch* instrument — a
    :class:`~repro.obs.metrics.MetricsRegistry`, a
    :class:`~repro.obs.tracer.Tracer`, a
    :class:`~repro.obs.ledger.LoadLedger` — installed for the trial's
    duration (masking whatever the executing process had active), whose
    dump is the matching payload element (``None`` when not collected).
    ``ledger`` is ``None`` (no ledger) or the ``per_proc`` of the
    installed ledger, which the scratch ledger copies, so the
    per-processor columns the installed ledger keeps survive the merge.
    """
    metrics, spans, ledger = collect
    with ExitStack() as stack:
        m = stack.enter_context(metrics_scope(MetricsRegistry())) if metrics else None
        t = stack.enter_context(tracing(Tracer())) if spans else None
        led = (
            stack.enter_context(ledger_scope(LoadLedger(per_proc=ledger)))
            if ledger is not None
            else None
        )
        t0 = time.perf_counter()
        value = task.run()
        wall = time.perf_counter() - t0
        return (
            value,
            wall,
            os.getpid(),
            None if m is None else m.to_dict(),
            None if t is None else export_spans(t),
            None if led is None else led.to_dict(),
        )


def attempt_task(task: TrialTask, collect: tuple, retries: int) -> tuple:
    """Run one trial, retrying a failure up to ``retries`` more times.

    Returns ``("ok", exec_payload, attempts)`` or ``("err",
    error_payload, attempts)``.  A retry re-runs the same task with the
    same derived seed: retries target *environmental* failures, and a
    deterministic raise fails every attempt.
    """
    for attempts in range(1, retries + 2):
        try:
            return "ok", _execute(task, collect), attempts
        except Exception as exc:  # noqa: BLE001 - captured as data
            failure = error_payload(task, exc, traceback.format_exc(), os.getpid())
    return "err", failure, attempts


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = 1,
    on_error: str = "raise",
) -> SweepResult:
    """Execute every trial of ``spec`` and return a :class:`SweepResult`.

    ``jobs`` alone decides placement: ``serial`` (in-process) when
    ``jobs == 1`` or there is at most one task, the work-stealing
    ``pool-steal`` worker pool otherwise.  The ``results`` list is in
    task order, and — because trial functions are pure and seeded
    per-task — identical at every job count.

    ``on_error`` is ``"raise"`` (abort the sweep with
    :class:`TrialExecutionError` on the first failure), ``"skip"``
    (record the failure, ``results[i] is None``, keep going), or
    ``"retry:N"`` (re-attempt up to ``N`` more times, then skip).  Skips
    and retries are visible in :meth:`SweepResult.telemetry`.  Failure
    accounting is per task: under ``"skip"``/``"retry"`` a hard worker
    death on the pool skips exactly the trial that worker held, never a
    chunk, never the sweep.

    Installed observers decide only what each trial collects (its
    scratch spans, metrics and ledger rows), never what runs.
    """
    jobs = resolve_jobs(jobs)
    mode, retries = parse_on_error(on_error)
    tasks = spec.tasks()
    t0 = time.perf_counter()
    results: List[Any] = [None] * len(tasks)
    records: List[Optional[TrialRecord]] = [None] * len(tasks)
    tracer = active_tracer()
    mreg = active_metrics()
    ledger = active_ledger()
    pooled = jobs > 1 and len(tasks) > 1
    backend = "pool-steal" if pooled else "serial"
    collect = (mreg is not None, tracer is not None, None if ledger is None else ledger.per_proc)
    # the sweep's own accumulator: its summary() becomes the telemetry
    # "ledger" block regardless of what the caller does with the active
    # ledger afterwards
    sweep_ledger = LoadLedger(per_proc=False) if ledger is not None else None
    worker_clocks: dict = {}  # pid -> back-to-back wall offset per worker

    def _take(task: TrialTask, outcome: tuple) -> None:
        """Raise, skip or merge one trial's outcome, in task order."""
        status, payload, attempts = outcome
        if status == "err":
            if mode == "raise":
                raise TrialExecutionError(*payload[:5])
            records[task.index] = TrialRecord(
                index=task.index,
                point=task.point,
                trial=task.trial,
                wall_time=0.0,
                worker=payload[5],
                attempts=attempts,
                status="skipped",
                error=payload[3],
            )
            return
        value, wall, pid, delta, spans, ledger_dump = payload
        results[task.index] = value
        records[task.index] = TrialRecord(
            index=task.index,
            point=task.point,
            trial=task.trial,
            wall_time=wall,
            worker=pid,
            attempts=attempts,
        )
        # per-trial dumps merge in task order on either placement, so
        # gauges and float sums resolve identically at any job count
        if delta is not None and mreg is not None:
            mreg.merge(delta)
        if spans is not None and tracer is not None:
            _splice_trial(task, pid, wall, spans)
        if ledger_dump is not None:
            if ledger is not None:
                ledger.merge_dump(ledger_dump)
            if sweep_ledger is not None:
                sweep_ledger.merge_dump(ledger_dump)

    def _splice_trial(task: TrialTask, pid: int, wall: float, spans: dict) -> None:
        """Build the ``trial`` span and graft the worker's real spans under
        it.  Wall layout: each worker's trials lie back-to-back from the
        sweep start on a ``worker <pid>`` track (per-trial durations are
        exact; inter-trial gaps are elided).  Model layout: trials advance
        the parent model clock sequentially in task order — exactly the
        axis a single uninterrupted process would produce."""
        base = sweep_span.wall_start if sweep_span is not None else 0.0
        offset = worker_clocks.get(pid, 0.0)
        worker_clocks[pid] = offset + wall
        trial_span = tracer.add(
            f"trial {task.label}", cat="trial", track=f"worker {pid}",
            parent=sweep_span,
            wall_start=base + offset, wall_dur=wall,
            model_start=tracer.model_clock,
            args={"point": task.point, "trial": task.trial, "worker": pid},
        )
        wall_min = min(
            (s[4] for s in spans.get("spans", ()) if s[4] is not None),
            default=None,
        )
        splice_spans(
            tracer, spans, parent=trial_span,
            wall_offset=(trial_span.wall_start - wall_min)
            if wall_min is not None else 0.0,
        )
        model_total = float(spans.get("model_clock", 0.0))
        if model_total:
            trial_span.model_dur = model_total

    sweep_span = (
        tracer.begin(
            "sweep", cat="sweep", track="sweep",
            sweep=spec.name, jobs=jobs, trials=len(tasks), backend=backend,
        )
        if tracer is not None
        else None
    )
    stats: dict = {}
    try:
        if pooled:
            from repro.sweep.pool import run_pool

            outcomes, stats = run_pool(tasks, jobs, collect, mode, retries)
            for task, outcome in zip(tasks, outcomes):
                if outcome is not None:  # None: unfinished when "raise" stopped the pool
                    _take(task, outcome)
        else:
            for task in tasks:
                _take(task, attempt_task(task, collect, retries))
            stats = {
                "name": backend,
                "workers": 1,
                "tasks_per_worker": {os.getpid(): len(tasks)},
                "steals": 0,
                "worker_deaths": 0,
            }
    finally:
        if sweep_span is not None:
            tracer.end(
                sweep_span,
                completed=sum(1 for r in records if r is not None),
                backend=backend,
                steals=stats.get("steals", 0),
                worker_deaths=stats.get("worker_deaths", 0),
            )

    return SweepResult(
        name=spec.name,
        jobs=jobs,
        elapsed=time.perf_counter() - t0,
        results=results,
        records=records,
        point_keys=spec.point_keys,
        seed=_describe_root_seed(spec.seed),
        backend=backend,
        backend_stats=stats,
        ledger=sweep_ledger.summary() if sweep_ledger is not None else None,
    )


def _describe_root_seed(seed) -> Any:
    """The sweep's root seed as a JSON-friendly, replayable expression."""
    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return describe_seed(seed)
    return repr(seed)
