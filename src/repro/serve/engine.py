"""The compute engines of ``repro serve``: where a request's pure compute
runs once the executor's worker threads have done its bookkeeping.

The compute is a scenario — :func:`repro.serve.executor.run_scenario_batch`
for a coalesced group, or :func:`repro.serve.executor.run_scenario`, its
batch of one, for a solo request — or an ``experiment``/``sweep`` kind.
The scenario's params were validated at submit
(:func:`repro.serve.protocol.scenario_params`), so a bad value never
reaches an engine as a crash.  The bookkeeping stays on the executor's
``--workers`` threads on both engines: the admission hand-off, the
response cache (including the store's fsync), retry/backoff,
quarantine and chaos.  Both engines have one call surface —
``start()``, ``call(kind, params, seed, deadline)`` and ``shutdown()``
— so the executor has a single engine path.

The thread engine: one compute lane
-----------------------------------
Under CPython's GIL the thread engine is a globally limited machine with
``m = 1``: however many worker threads hold requests, one of them
computes at a time.  Letting every worker compute anyway costs memory,
not time.  glibc gives each thread that allocates its own malloc arena,
and each arena keeps a scenario's working set (about 2.2 MB at
``n = 20000`` flits) after the request ends.  :class:`ComputeLane`
charges for the restriction that binds: one long-lived thread runs every
compute in arrival order.  Pings and cache hits never wait behind a
compute, and the next compute overlaps the previous reply's store write.
The lane re-checks a request's deadline when it picks the request up, so
a request that expired in the lane's queue sheds ``E_DEADLINE`` without
building anything, and it records that queue wait as the histogram
``serve.compute.wait_s``.  It uses only ``threading`` and
``collections``, which the daemon has loaded before it is ready.

The process engine: a persistent pool
-------------------------------------
``--engine process`` ships the compute to long-lived worker processes
via :class:`concurrent.futures.ProcessPoolExecutor`, so CPU-bound kinds
run truly in parallel.

Error translation is the load-bearing part.  :class:`ServeError` does
*not* survive pickling (its constructor validates the code but
``BaseException.args`` only carries the formatted message), and
:class:`RunAborted` requires a ``partial`` RunResult the parent never
uses.  So the worker never lets an exception cross the process
boundary raw: :func:`_engine_call` returns a tagged tuple —

* ``("ok", payload, spans)`` — the handler's dict, pickled back
  verbatim, so a process-served answer is bit-identical to the lane's
  answer; ``spans`` is the worker's scratch-tracer dump
  (:func:`repro.obs.tracer.export_spans`) when the parent asked for it,
  else ``None`` — the parent splices the *real* worker spans under a
  ``serve <kind>`` span on its own tracer, replacing nothing with
  synthesis;
* ``("serve_error", code, detail, extra)`` — a structured rejection,
  re-raised parent-side as a real :class:`ServeError` (deadline aborts
  are folded into ``E_DEADLINE`` by :func:`_compute`, on both engines);
* ``("exc", type_name, message, traceback)`` — anything else, re-raised
  as :class:`RemoteCrash` so the executor's retry → quarantine state
  machine sees an ordinary crash.

A hard worker death (``BrokenProcessPool``) is handled the same way the
sweep's pool-steal backend handles it: the pool is rebuilt and the one
affected request surfaces as a retryable :class:`RemoteCrash` — the
daemon loses capacity for milliseconds, never a request.

Deadlines cross the boundary as *remaining seconds*, re-anchored to the
worker's own monotonic clock at entry, so the engine never assumes the
two processes share a clock epoch.

``concurrent.futures.process`` (and with it ``multiprocessing``) is
imported inside :class:`ProcessEngine`, so a thread-engine daemon never
loads it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Tuple

from repro.serve.protocol import ServeError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.serve.telemetry import ServerMetrics

__all__ = ["ENGINES", "ComputeLane", "ProcessEngine", "RemoteCrash"]

#: compute engines the executor accepts (``ExecutorConfig.engine``)
ENGINES = ("thread", "process")


class RemoteCrash(RuntimeError):
    """A handler crashed in a pool worker; carries the remote traceback.

    Deliberately a plain ``RuntimeError`` subclass: the executor's
    generic-exception path (retry, backoff, quarantine) must treat a
    remote crash exactly like a crash on the lane.
    """

    def __init__(self, type_name: str, message: str, traceback_text: str = "") -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.remote_traceback = traceback_text


def _compute(
    kind: str, params: Dict[str, Any], seed: int, deadline: Optional[float]
) -> Dict[str, Any]:
    """Run one compute handler, on whichever engine called it.

    A scenario aborts at ``deadline`` (absolute, this process's monotonic
    clock); an experiment kind cannot abort mid-run and ignores it.  A
    ``RunAborted`` is re-raised as its structured :class:`ServeError`.
    """
    from repro.core.engine import RunAborted
    from repro.serve.executor import _aborted_error, _run_experiment_kind, run_scenario

    try:
        if kind == "scenario":
            return run_scenario(params, seed, deadline=deadline)
        return _run_experiment_kind(kind, params, seed)
    except RunAborted as exc:
        raise _aborted_error(exc)


class _Job:
    """One compute waiting for, or running on, the lane."""

    __slots__ = ("fn", "args", "deadline", "queued", "done", "value", "error")

    def __init__(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], deadline: Optional[float]
    ) -> None:
        self.fn = fn
        self.args = args
        self.deadline = deadline
        self.queued = time.monotonic()
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class ComputeLane:
    """The thread engine: one long-lived thread runs every compute.

    Callers (the executor's worker threads) block in :meth:`run` until
    their job is done; the job's return value or exception is handed back
    to them, so the executor's retry and error handling see exactly what
    an in-thread call would raise.  Before :meth:`start` and after the
    lane has drained on :meth:`shutdown`, a job runs on the caller's own
    thread, so no caller is ever left waiting on a lane that is gone.
    """

    def __init__(self, metrics: Optional["ServerMetrics"] = None) -> None:
        self.metrics = metrics
        self._jobs: Deque[_Job] = deque()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closing = False  # shutdown asked: finish the queue, then exit
        self._closed = False  # the lane thread has exited

    def start(self) -> None:
        with self._cond:
            if self._thread is None and not self._closing:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-serve-compute", daemon=True
                )
                self._thread.start()

    def shutdown(self) -> None:
        """Let the lane finish its queued jobs, then exit (non-blocking)."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()

    def call(
        self,
        kind: str,
        params: Dict[str, Any],
        seed: int,
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        """Run one handler on the lane; return its payload or re-raise."""
        return self.run(_compute, kind, params, seed, deadline, deadline=deadline)

    def run(
        self, fn: Callable[..., Any], *args: Any, deadline: Optional[float] = None
    ) -> Any:
        """Queue ``fn(*args)`` on the lane and wait for its outcome.  A job
        whose ``deadline`` has passed when the lane picks it up raises
        ``E_DEADLINE`` instead of running."""
        job = _Job(fn, args, deadline)
        with self._cond:
            queued = self._thread is not None and not self._closed
            if queued:
                self._jobs.append(job)
                self._cond.notify()
        if queued:
            job.done.wait()
        else:
            self._execute(job)
        if job.error is not None:
            raise job.error
        return job.value

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._jobs and not self._closing:
                    self._cond.wait()
                if not self._jobs:
                    self._closed = True
                    return
                job = self._jobs.popleft()
            self._execute(job)
            job.done.set()
            del job  # while idle, a failed job's traceback would pin its frames

    def _execute(self, job: _Job) -> None:
        picked = time.monotonic()
        waited = picked - job.queued
        if self.metrics is not None:
            self.metrics.observe("compute.wait_s", waited)
        try:
            if job.deadline is not None and picked > job.deadline:
                raise ServeError(
                    "E_DEADLINE",
                    f"request deadline expired while queued for compute "
                    f"(waited {waited:.3f}s)",
                )
            job.value = job.fn(*job.args)
        except BaseException as exc:  # noqa: BLE001 - handed to the caller
            job.error = exc


def _engine_init() -> None:
    """Worker-process initializer (runs once per worker, at fork).

    A fork-inherited tracer/ledger would record rows nobody collects;
    real capture is per call — ``collect_spans`` installs a scratch
    tracer and ships its dump back with the result.
    """
    from repro.obs.ledger import uninstall_ledger
    from repro.obs.tracer import uninstall_tracer

    uninstall_tracer()
    uninstall_ledger()


def _engine_call(
    kind: str,
    params: Dict[str, Any],
    seed: int,
    deadline_remaining: Optional[float],
    collect_spans: bool = False,
) -> Tuple[Any, ...]:
    """Worker-side entry point: run one handler, return a tagged tuple.

    Never raises — every outcome, success or failure, crosses the
    process boundary as plain picklable data (see the module docstring
    for why the exceptions themselves cannot).
    """
    deadline = None
    if deadline_remaining is not None:
        deadline = time.monotonic() + deadline_remaining
    try:
        spans = None
        if collect_spans:
            from repro.obs.tracer import Tracer, export_spans, tracing

            with tracing(Tracer()) as scratch:
                payload = _compute(kind, params, seed, deadline)
            spans = export_spans(scratch)
        else:
            payload = _compute(kind, params, seed, deadline)
        return ("ok", payload, spans)
    except ServeError as err:
        return ("serve_error", err.code, err.detail, dict(err.extra))
    except Exception as exc:  # noqa: BLE001 - the whole point is translation
        import traceback as tb_mod

        return ("exc", type(exc).__name__, str(exc), tb_mod.format_exc())


class ProcessEngine:
    """A persistent process pool serving handler calls for the executor.

    Lazy: the pool is created on first :meth:`call` (so constructing an
    executor with ``engine="process"`` costs nothing until traffic
    arrives) and rebuilt transparently after a ``BrokenProcessPool``.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._splice_lock = threading.Lock()  # Tracer is not thread-safe

    # -- pool lifecycle ------------------------------------------------
    def start(self) -> None:
        """Nothing to start: the pool is built on the first :meth:`call`."""

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-fork platforms
                    ctx = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=ctx,
                    initializer=_engine_init,
                )
            return self._pool

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next call rebuilds a fresh one."""
        with self._lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- the call path -------------------------------------------------
    def call(
        self,
        kind: str,
        params: Dict[str, Any],
        seed: int,
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        """Run one handler in the pool; return its payload or re-raise.

        Raises :class:`ServeError` for structured rejections and
        :class:`RemoteCrash` for everything else — the same exception
        surface as :meth:`ComputeLane.call`, so the executor's retry loop
        needs no engine-specific branches.
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.tracer import active_tracer

        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError("E_DEADLINE", "deadline expired before dispatch")
        tracer = active_tracer()
        pool = self._get_pool()
        t0 = time.perf_counter()
        try:
            outcome = pool.submit(
                _engine_call, kind, params, seed, remaining,
                tracer is not None,
            ).result()
        except BrokenProcessPool as exc:
            # a worker died hard mid-request: rebuild capacity, surface
            # the one affected request as an ordinary retryable crash
            self._discard_pool(pool)
            raise RemoteCrash(
                "BrokenProcessPool",
                f"engine worker died mid-request ({exc}); pool rebuilt",
            ) from exc
        tag = outcome[0]
        if tag == "ok":
            payload, spans = outcome[1], outcome[2] if len(outcome) > 2 else None
            if spans is not None and tracer is not None:
                self._splice(tracer, kind, spans, t0)
            return payload
        if tag == "serve_error":
            _, code, detail, extra = outcome
            raise ServeError(code, detail, **extra)
        _, type_name, message, traceback_text = outcome
        raise RemoteCrash(type_name, message, traceback_text)

    def _splice(self, tracer, kind: str, spans: Dict[str, Any], t0: float) -> None:
        """Graft the worker's real spans under a ``serve <kind>`` span on
        the parent tracer (serialized: several executor threads may call
        into the engine at once and the tracer is not thread-safe)."""
        from repro.obs.tracer import splice_spans

        with self._splice_lock:
            parent = tracer.add(
                f"serve {kind}", cat="serve", track="serve",
                wall_start=t0, wall_dur=time.perf_counter() - t0,
            )
            wall_min = min(
                (s[4] for s in spans.get("spans", ()) if s[4] is not None),
                default=None,
            )
            splice_spans(
                tracer, spans, parent=parent,
                wall_offset=(t0 - wall_min) if wall_min is not None else 0.0,
            )
