"""The compute lane of ``repro serve``: where a request's pure compute
runs while the HTTP thread serving the request does its bookkeeping.

Each request computes once, alone, in the daemon's own process: a
``scenario`` is one :func:`repro.serve.executor.run_scenario` call and
an ``experiment`` runs at ``jobs=1``.  The scenario's params were
validated at submit (:func:`repro.serve.protocol.scenario_params`) and
an experiment's are checked before it runs
(:func:`repro.serve.executor.experiment_params`), so a bad value never
reaches the lane as a crash.  The bookkeeping stays on the request's
own HTTP thread, one of at most ``--workers`` in service: the response
cache (including the store's fsync), retry/backoff, quarantine and
chaos.

Under CPython's GIL the daemon is a globally limited machine with
``m = 1``: however many threads hold requests, one of them computes at
a time.  Letting every serving thread compute anyway costs memory, not
time.  glibc gives each thread that allocates its own malloc arena,
and each arena keeps a scenario's working set (about 2.2 MB at
``n = 20000`` flits) after the request ends.  :class:`ComputeLane`
charges for the restriction that binds: one long-lived thread runs every
compute in arrival order.  Pings and cache hits never wait behind a
compute, and the next compute overlaps the previous reply's store write.
The lane re-checks a request's deadline when it picks the request up, so
a request that expired in the lane's queue sheds ``E_DEADLINE`` without
building anything, and it records that queue wait as the histogram
``serve.compute.wait_s``.  A caller waits for its job at most
:data:`WAIT_CAP_S`; a job not yet picked up by then leaves the queue,
and the caller gets ``E_INTERNAL``.  It uses only ``threading`` and
``collections``, which the daemon has loaded before it is ready.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Tuple

from repro.serve.protocol import ServeError

if TYPE_CHECKING:
    from repro.serve.telemetry import ServerMetrics

__all__ = ["ComputeLane", "WAIT_CAP_S"]

#: longest a request waits for its turn or for its compute: a backstop
#: against a wedged compute, not a normal code path
WAIT_CAP_S = 600.0


def _compute(
    kind: str, params: Dict[str, Any], seed: int, deadline: Optional[float]
) -> Dict[str, Any]:
    """Run one compute handler.

    A scenario aborts at ``deadline`` (absolute, on the monotonic clock);
    an experiment cannot abort mid-run and ignores it.  A ``RunAborted``
    is re-raised as its structured :class:`ServeError`.
    """
    from repro.core.engine import RunAborted
    from repro.serve.executor import _aborted_error, _run_experiment_kind, run_scenario

    try:
        if kind == "scenario":
            return run_scenario(params, seed, deadline=deadline)
        return _run_experiment_kind(params, seed)
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
    """One long-lived thread runs every compute.

    Callers (the threads serving requests) block in :meth:`run` until
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
        ``E_DEADLINE`` instead of running; no outcome within
        :data:`WAIT_CAP_S` raises ``E_INTERNAL``."""
        job = _Job(fn, args, deadline)
        with self._cond:
            queued = self._thread is not None and not self._closed
            if queued:
                self._jobs.append(job)
                self._cond.notify()
        if not queued:
            self._execute(job)
        elif not job.done.wait(WAIT_CAP_S):
            with self._cond:
                if job in self._jobs:  # never picked up: it must not run later
                    self._jobs.remove(job)
            if not job.done.is_set():
                raise ServeError(
                    "E_INTERNAL",
                    f"no compute outcome within {WAIT_CAP_S}s (lane wedged?)",
                )
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
