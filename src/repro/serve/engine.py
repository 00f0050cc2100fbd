"""The ``--engine process`` compute backend for ``repro serve``: route
handler execution into a persistent process pool so CPU-bound requests
(scenario routing, experiment sweeps) actually run in parallel instead
of time-slicing one GIL.

The thread engine (the default) runs handlers inline on the executor's
worker threads — right for I/O-light serving, cache-heavy traffic, and
single-core boxes.  The process engine keeps the *same* thread pool for
admission/retry/caching bookkeeping but ships the pure compute —
:func:`repro.serve.executor.run_scenario` and the experiment kinds —
to long-lived worker processes via :class:`concurrent.futures.
ProcessPoolExecutor`.

Error translation is the load-bearing part.  :class:`ServeError` does
*not* survive pickling (its constructor validates the code but
``BaseException.args`` only carries the formatted message), and
:class:`RunAborted` requires a ``partial`` RunResult the parent never
uses.  So the worker never lets an exception cross the process
boundary raw: :func:`_engine_call` returns a tagged tuple —

* ``("ok", payload, spans)`` — the handler's dict, pickled back
  verbatim, so a process-served answer is bit-identical to the in-thread
  call; ``spans`` is the worker's scratch-tracer dump
  (:func:`repro.obs.tracer.export_spans`) when the parent asked for it,
  else ``None`` — the parent splices the *real* worker spans under a
  ``serve <kind>`` span on its own tracer, replacing nothing with
  synthesis;
* ``("serve_error", code, detail, extra)`` — a structured rejection,
  re-raised parent-side as a real :class:`ServeError` (deadline aborts
  are folded into ``E_DEADLINE`` here, exactly as the thread path does);
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
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["ENGINES", "ProcessEngine", "RemoteCrash"]

#: compute engines the executor accepts (``ExecutorConfig.engine``)
ENGINES = ("thread", "process")


class RemoteCrash(RuntimeError):
    """A handler crashed in a pool worker; carries the remote traceback.

    Deliberately a plain ``RuntimeError`` subclass: the executor's
    generic-exception path (retry, backoff, quarantine) must treat a
    remote crash exactly like an in-thread one.
    """

    def __init__(self, type_name: str, message: str, traceback_text: str = "") -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.remote_traceback = traceback_text


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
    from repro.core.engine import RunAborted
    from repro.serve.executor import _aborted_error, _run_experiment_kind, run_scenario
    from repro.serve.protocol import ServeError

    deadline = None
    if deadline_remaining is not None:
        deadline = time.monotonic() + deadline_remaining
    try:
        spans = None
        if collect_spans:
            from repro.obs.tracer import Tracer, export_spans, tracing

            with tracing(Tracer()) as scratch:
                if kind == "scenario":
                    payload = run_scenario(params, seed, deadline=deadline)
                else:
                    payload = _run_experiment_kind(kind, params, seed)
            spans = export_spans(scratch)
        elif kind == "scenario":
            payload = run_scenario(params, seed, deadline=deadline)
        else:
            payload = _run_experiment_kind(kind, params, seed)
        return ("ok", payload, spans)
    except ServeError as err:
        return ("serve_error", err.code, err.detail, dict(err.extra))
    except RunAborted as exc:
        err = _aborted_error(exc)
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
        surface the in-thread handlers present, so the executor's retry
        loop needs no engine-specific branches.
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.tracer import active_tracer
        from repro.serve.protocol import ServeError

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
