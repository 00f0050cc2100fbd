"""Sweep execution on the placement ``jobs`` picks, with a bit-identical
contract.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
pure, independently seeded tasks and hands them to one of two backends:
``serial`` (in-process) for ``jobs=1`` or at most one task,
``pool-steal`` (persistent work-stealing worker pool) otherwise.  The
runner keeps every determinism guarantee on either placement:

* **ordered reassembly** — backends return outcomes in task order, so
  ``results[i]`` always belongs to ``tasks()[i]`` no matter which worker
  finished first: every backend is *bit-identical* to the serial path
  (trial functions are pure and carry their own derived seed);
* **task-order metrics merge** — per-trial metric scratch dumps merge in
  task order in every mode, so aggregated metrics are identical at any
  job count;
* **task-order span splice and ledger merge** — every backend (serial
  included) runs each trial against scratch observability instruments
  (:func:`~repro.sweep.backends.base.execute_task`) and ships the span
  and load-ledger dumps in the payload; the runner builds the ``trial``
  span and splices the worker's real spans under it, and merges ledger
  rows into the active :class:`~repro.obs.ledger.LoadLedger`, in task
  order — so traces and ledgers are bit-identical across backends and
  job counts;
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
  skipping it.  Failure accounting is **per task**: under the pool
  backend even a hard worker-process death skips exactly the one
  in-flight trial — the pool respawns a worker and the shared queue
  redistributes the rest.

``jobs=0`` / ``jobs=None`` auto-sizes to the machine's usable CPU count.
"""

from __future__ import annotations

import os
import time
from typing import Any, List, Optional

import numpy as np

from repro.obs.ledger import LoadLedger, active_ledger
from repro.obs.metrics import active_metrics
from repro.obs.tracer import active_tracer, splice_spans
from repro.sweep.backends import PoolStealBackend, SerialBackend
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


def _raise_trial_error(payload):
    label, params_desc, seed_desc, cause_repr, tb = payload[:5]
    raise TrialExecutionError(label, params_desc, seed_desc, cause_repr, tb)


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = 1,
    on_error: str = "raise",
) -> SweepResult:
    """Execute every trial of ``spec`` and return a :class:`SweepResult`.

    ``jobs`` alone decides placement: ``serial`` (in-process) when
    ``jobs == 1`` or there is at most one task, the
    work-stealing ``pool-steal`` backend otherwise.  The ``results`` list
    is in task order, and — because trial functions are pure and seeded
    per-task — identical at every job count.

    ``on_error`` is ``"raise"`` (abort the sweep with
    :class:`TrialExecutionError` on the first failure), ``"skip"``
    (record the failure, ``results[i] is None``, keep going), or
    ``"retry:N"`` (re-attempt up to ``N`` more times, then skip).  Skips
    and retries are visible in :meth:`SweepResult.telemetry`.  Failure
    accounting is per task: under ``"skip"``/``"retry"`` a hard worker
    death on the pool backend skips exactly the in-flight trial, never a
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
    be = SerialBackend() if jobs == 1 or len(tasks) <= 1 else PoolStealBackend()
    # the sweep's own accumulator: its summary() becomes the telemetry
    # "ledger" block regardless of what the caller does with the active
    # ledger afterwards
    sweep_ledger = LoadLedger(per_proc=False) if ledger is not None else None
    worker_clocks: dict = {}  # pid -> back-to-back wall offset per worker

    def _append(task: TrialTask, payload, attempts: int = 1) -> None:
        value, wall, pid, delta, spans, ledger_dump = payload
        results[task.index] = value
        records[task.index] = (
            TrialRecord(
                index=task.index,
                point=task.point,
                trial=task.trial,
                wall_time=wall,
                worker=pid,
                attempts=attempts,
            )
        )
        # per-trial dumps merge in task order on every backend, so gauges
        # and float sums resolve identically at any job count
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

    def _append_skipped(task: TrialTask, payload, attempts: int) -> None:
        cause_repr = payload[3]
        pid = payload[5] if len(payload) > 5 else -1
        results[task.index] = None
        records[task.index] = (
            TrialRecord(
                index=task.index,
                point=task.point,
                trial=task.trial,
                wall_time=0.0,
                worker=pid,
                attempts=attempts,
                status="skipped",
                error=cause_repr,
            )
        )

    sweep_span = (
        tracer.begin(
            "sweep", cat="sweep", track="sweep",
            sweep=spec.name, jobs=jobs, trials=len(tasks), backend=be.name,
        )
        if tracer is not None
        else None
    )
    stats = {}
    try:
        outcomes, stats = be.run(
            tasks,
            jobs=jobs,
            collect_metrics=mreg is not None,
            mode=mode,
            retries=retries,
            collect_spans=tracer is not None,
            collect_ledger=None if ledger is None else ledger.per_proc,
        )
        for task, outcome in zip(tasks, outcomes):
            if outcome is None:
                continue  # raise-mode early stop: never reached
            status, payload, attempts = outcome
            if status == "err":
                if mode == "raise":
                    _raise_trial_error(payload)
                _append_skipped(task, payload, attempts)
            else:
                _append(task, payload, attempts)
    finally:
        if sweep_span is not None:
            tracer.end(
                sweep_span,
                completed=sum(1 for r in records if r is not None),
                backend=be.name,
                steals=stats.get("steals", 0),
                worker_deaths=stats.get("worker_deaths", 0),
            )

    if any(r is None for r in records):
        # raise-mode early stop on a non-serial backend: unreached tasks
        # were never executed; keep only the executed prefix, task order
        keep = [i for i, r in enumerate(records) if r is not None]
        results = [results[i] for i in keep]
        records = [records[i] for i in keep]
    return SweepResult(
        name=spec.name,
        jobs=jobs,
        elapsed=time.perf_counter() - t0,
        results=results,
        records=records,
        point_keys=spec.point_keys,
        seed=_describe_root_seed(spec.seed),
        backend=be.name,
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
