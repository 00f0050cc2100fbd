"""The ``pool-steal`` placement: forked workers that each hold one trial
at a time.

:func:`repro.sweep.run_sweep` hands a sweep here when ``jobs > 1`` and
the sweep has two or more tasks.  Each worker owns one duplex pipe.  The
parent sends a task index down it; the worker runs that trial through
the runner's own :func:`~repro.sweep.runner.attempt_task` and sends the
outcome back up the same pipe before it reads its next index.  So:

* **one task in flight per worker** — the parent always knows which
  index a worker holds, and hands it the next pending one the moment its
  result arrives: the fastest worker keeps taking whatever is left
  (work-stealing), and a straggler trial delays only itself;
* **exact death accounting** — EOF on a worker's pipe, read only after
  everything the worker sent, means the worker died: the one task it
  held is recorded as a :class:`WorkerDied` error, and a replacement is
  forked while work remains.  Private pipes mean a dying worker holds no
  lock its siblings need (a shared ``multiprocessing.Queue`` wedged the
  whole pool when ``os._exit`` killed a worker whose feeder thread held
  the queue's write lock);
* **task-order outcomes** — results come back tagged with their index
  and are returned in task order, so the runner merges them exactly as
  it merges an in-process run's, and the sweep is bit-identical to it.

One-deep dispatch costs a round trip per task (tens of µs), which is
noise against trials that run for milliseconds.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from collections import deque
from contextlib import suppress

from repro.obs.ledger import uninstall_ledger
from repro.obs.tracer import uninstall_tracer
from repro.sweep.runner import attempt_task, error_payload

__all__ = ["run_pool", "WorkerDied"]


class WorkerDied(RuntimeError):
    """A pool worker exited without reporting a result (hard death)."""


def _worker(conn, tasks, collect, retries) -> None:
    """Run each task index the parent sends until the ``None`` sentinel."""
    # a fork-inherited tracer or ledger would record rows nobody collects;
    # each trial runs against scratch instruments and ships their dumps
    uninstall_tracer()
    uninstall_ledger()
    while True:
        idx = conn.recv()
        if idx is None:
            return
        # sent before the next recv: a death in a later task loses nothing
        conn.send((idx, *attempt_task(tasks[idx], collect, retries)))


def run_pool(tasks: list, jobs: int, collect: tuple, mode: str, retries: int):
    """Run ``tasks`` on ``min(jobs, len(tasks))`` forked workers.

    Returns ``(outcomes, stats)``.  ``outcomes[i]`` is the
    ``(status, payload, attempts)`` of ``tasks[i]``; under ``mode="raise"``
    the pool hands out no more work after the first error, and a task it
    never finished stays ``None``.  ``stats`` is the telemetry ``backend``
    report: worker task counts, steals and worker deaths.  Under
    ``"raise"``, a death that held no task raises :class:`WorkerDied`
    unless a trial error was recorded.
    """
    n = len(tasks)
    workers = min(jobs, n)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    pending = deque(range(n))
    procs = {}  # parent end of each live worker's pipe -> its process
    in_flight = {}  # parent end -> the task index its worker holds
    outcomes = [None] * n
    counts = {}  # pid -> tasks it reported
    deaths = 0
    died = None  # under "raise": the first death, raised if no trial error
    stop = False  # under "raise": an error arrived, hand out no more work

    def dispatch(conn) -> None:
        if pending and not stop:
            in_flight[conn] = pending.popleft()
            with suppress(OSError):  # the worker just died: its EOF records the task
                conn.send(in_flight[conn])

    def spawn() -> None:
        conn, child = ctx.Pipe()
        p = ctx.Process(
            target=_worker,
            args=(child, tasks, collect, retries),
            # every worker started so far is live or counted in deaths
            name=f"repro-sweep-worker-{len(procs) + deaths}",
        )
        p.start()
        child.close()  # the worker holds the only other end: EOF = exit
        procs[conn] = p
        dispatch(conn)

    try:
        for _ in range(workers):
            spawn()
        while (pending or in_flight) and not stop:
            for conn in multiprocessing.connection.wait(list(procs)):
                try:
                    idx, status, payload, attempts = conn.recv()
                except (EOFError, OSError):
                    # the worker died: EOF, a reset (it died with an index
                    # unread) or a result cut short; whatever it sent in
                    # full came first
                    p = procs.pop(conn)
                    p.join()
                    conn.close()
                    deaths += 1
                    exc = WorkerDied(
                        f"sweep worker {p.name} (pid {p.pid}) died with exit "
                        f"code {p.exitcode} while executing a task"
                    )
                    idx = in_flight.pop(conn, None)
                    if idx is not None:
                        outcomes[idx] = ("err", error_payload(tasks[idx], exc, "", p.pid), 1)
                    if mode == "raise":
                        died = died or exc
                        stop = True
                    elif pending:
                        spawn()
                    continue
                del in_flight[conn]
                pid = procs[conn].pid
                counts[pid] = counts.get(pid, 0) + 1
                outcomes[idx] = (status, payload, attempts)
                stop = stop or (status == "err" and mode == "raise")
                dispatch(conn)
    finally:
        # retire the pool: a sentinel for each live worker, a second to
        # exit, then a hard stop for any still running
        for conn in procs:
            with suppress(OSError):
                conn.send(None)
        for p in procs.values():
            p.join(timeout=1.0)
        for conn, p in procs.items():
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
            conn.close()

    if died is not None and not any(o and o[0] == "err" for o in outcomes):
        raise died
    # a "steal" is a task a worker ran beyond the static even split —
    # work a fixed-chunk schedule would have left queued behind a straggler
    fair = -(-n // workers)
    return outcomes, {
        "name": "pool-steal",
        "workers": workers,
        "tasks_per_worker": dict(sorted(counts.items())),
        "steals": sum(max(0, c - fair) for c in counts.values()),
        "worker_deaths": deaths,
    }
