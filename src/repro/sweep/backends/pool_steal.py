"""The ``pool-steal`` backend: a persistent worker pool self-scheduling
off a central task queue — work-stealing with a single shared deque.

Why this replaces the fixed-chunk :class:`ProcessPoolExecutor` runner:

* **per-task dispatch** — each worker is handed the *next* pending task
  the moment it finishes its last one, so a straggler trial delays only
  itself; under fixed chunks one slow trial serialized its whole chunk
  (and the chunk sizing itself guessed at a cost distribution it
  couldn't see);
* **per-task failure accounting** — a hard worker death (the
  ``BrokenProcessPool`` case) loses exactly the one dispatched in-flight
  task: the parent records that task as failed, spawns a replacement
  worker, and the central queue redistributes everything else;
* **long-lived workers** — each worker is started once per sweep and
  runs many tasks; trials are pure in their arguments, so a worker needs
  no state beyond the task list it was started with;
* **batched result drain** — the parent waits on every worker's result
  pipe at once and handles all that are ready, so result IPC amortizes
  like chunking did without chunking's scheduling downside.

Dispatch protocol: each worker owns a private task queue holding **at
most one** outstanding index, and a private result pipe it writes
synchronously.  The parent re-arms a worker the instant its result
arrives.  Keeping in-flight state parent-side is what makes death
attribution *exact and race-free*: the parent always knows precisely
which index a dying worker held, and the pipe's EOF — read only after
everything the worker sent — marks the death.  Private pipes also mean
a dying worker holds no lock its siblings need; a shared
``multiprocessing.Queue`` wedged the whole pool whenever ``os._exit``
killed a worker while its feeder thread still held the queue's write
lock.  One-deep dispatch costs a round-trip per task (~tens of µs) —
noise against trial functions that run for milliseconds, and the price
of never losing more than one task.

Determinism: workers ship each trial's payload (value, wall time, pid,
observability scratch dumps) back tagged with its task index; the
parent assembles ``outcomes`` in task order, so downstream results and
metrics merges are bit-identical to the serial backend no matter how
dispatch interleaved.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sweep.backends.base import (
    BackendStats,
    TaskOutcome,
    attempt_task,
    describe_params,
    new_stats,
)
from repro.sweep.spec import TrialTask
from repro.util.rng import describe_seed

__all__ = ["PoolStealBackend", "WorkerDied"]

#: longest single wait for results before the parent re-checks its loop
#: conditions; results and worker deaths themselves arrive event-driven
_POLL_S = 0.05


class WorkerDied(RuntimeError):
    """A pool worker exited without reporting a result (hard death)."""


def _worker_main(
    widx: int,
    tasks: Sequence[TrialTask],
    myq,
    results,
    collect_metrics: bool,
    mode: str,
    retries: int,
    collect_spans: bool = False,
    collect_ledger: bool = False,
) -> None:
    """Long-lived worker: execute dispatched indices until the sentinel."""
    # a fork-inherited tracer/ledger would record rows nobody collects;
    # real capture happens per trial — execute_task installs scratch
    # instruments and ships their dumps back in the payload, exactly as
    # the serial backend does.
    from repro.obs.ledger import uninstall_ledger
    from repro.obs.tracer import uninstall_tracer

    uninstall_tracer()
    uninstall_ledger()
    pid = os.getpid()
    while True:
        idx = myq.get()
        if idx is None:
            return
        status, payload, attempts, _ = attempt_task(
            tasks[idx], collect_metrics, mode, retries,
            collect_spans=collect_spans, collect_ledger=collect_ledger,
        )
        # a synchronous send: the result is in the pipe before the next
        # task can start, so a death in that task loses nothing sent
        results.send((widx, idx, status, payload, attempts, pid))


class PoolStealBackend:
    """Persistent self-scheduling worker pool with exact death accounting."""

    name = "pool-steal"

    def run(
        self,
        tasks: Sequence[TrialTask],
        *,
        jobs: int,
        collect_metrics: bool,
        mode: str,
        retries: int,
        collect_spans: bool = False,
        collect_ledger: bool = False,
    ) -> Tuple[List[Optional[TaskOutcome]], BackendStats]:
        n = len(tasks)
        workers = max(1, min(jobs, n))
        stats = new_stats(self.name, workers=workers)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()

        pending = deque(range(n))
        procs: Dict[int, Any] = {}
        queues: Dict[int, Any] = {}
        conns: Dict[int, Any] = {}  # widx -> read end of its result pipe
        in_flight: Dict[int, int] = {}  # widx -> dispatched task index
        retired: set = set()
        next_widx = 0

        outcomes: List[Optional[TaskOutcome]] = [None] * n
        done = 0
        counts: Dict[int, int] = {}  # pid -> executed tasks
        raise_exc: Optional[BaseException] = None
        stop = False  # raise-mode early abort: first err halts dispatch

        def dispatch(widx: int) -> None:
            """Arm a worker with the next pending index (or nothing)."""
            if pending and widx not in in_flight:
                idx = pending.popleft()
                in_flight[widx] = idx
                queues[widx].put(idx)

        def spawn() -> None:
            nonlocal next_widx
            widx = next_widx
            next_widx += 1
            queues[widx] = ctx.Queue()
            conns[widx], sender = ctx.Pipe(duplex=False)
            p = ctx.Process(
                target=_worker_main,
                args=(widx, tasks, queues[widx], sender, collect_metrics, mode,
                      retries, collect_spans, collect_ledger),
                name=f"repro-sweep-worker-{widx}",
            )
            p.start()
            sender.close()  # the worker holds the only write end: EOF = exit
            procs[widx] = p
            dispatch(widx)

        def record_death(widx: int, p) -> None:
            """Attribute a hard worker death to its one in-flight task."""
            nonlocal done, raise_exc
            retired.add(widx)
            stats["worker_deaths"] += 1
            idx = in_flight.pop(widx, None)
            exc = WorkerDied(
                f"sweep worker {p.name} (pid {p.pid}) died with exit code "
                f"{p.exitcode} while executing a task"
            )
            if idx is not None and outcomes[idx] is None:
                task = tasks[idx]
                payload = (
                    task.label,
                    describe_params(task.params),
                    describe_seed(task.seed),
                    repr(exc),
                    "",
                    p.pid or -1,
                )
                outcomes[idx] = ("err", payload, 1)
                done += 1
            if mode == "raise" and raise_exc is None:
                raise_exc = exc

        def handle(msg) -> None:
            nonlocal done, stop
            widx, idx, status, payload, attempts, pid = msg
            in_flight.pop(widx, None)
            counts[pid] = counts.get(pid, 0) + 1
            if outcomes[idx] is None:
                outcomes[idx] = (status, payload, attempts)
                done += 1
            if status == "err" and mode == "raise":
                stop = True  # the runner raises; stop handing out work
                return
            # re-arm immediately: this is the work-stealing step — the
            # fastest worker keeps pulling whatever is left
            dispatch(widx)

        try:
            for _ in range(workers):
                spawn()
            while done < n and raise_exc is None and not stop:
                live = {conns[w]: w for w in procs if w not in retired}
                for conn in mp_connection.wait(list(live), timeout=_POLL_S):
                    w = live[conn]
                    try:
                        msg = conn.recv()
                    except EOFError:
                        # the worker exited: everything it sent came first
                        procs[w].join()
                        record_death(w, procs[w])
                        # replace lost capacity; the central queue redistributes
                        if pending and raise_exc is None:
                            spawn()
                        continue
                    handle(msg)
        finally:
            # retire the pool: sentinels for the cooperative path, then a
            # hard stop for anything still wedged
            for w, p in procs.items():
                if p.is_alive():
                    try:
                        queues[w].put(None)
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            for p in procs.values():
                if p.is_alive():
                    p.join(timeout=1.0)
            for p in procs.values():
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
            for q in queues.values():
                q.close()
            for conn in conns.values():
                conn.close()

        if raise_exc is not None:
            # the in-flight task's identity is already recorded as an err
            # outcome — the runner raises TrialExecutionError at it.  A
            # death with no attributable task raises directly.
            if not any(o is not None and o[0] == "err" for o in outcomes):
                raise raise_exc
        stats["tasks_per_worker"] = {int(pid): c for pid, c in sorted(counts.items())}
        # a "steal" is a task a worker picked up beyond the static even
        # split across the pool — exactly the work a fixed-chunk schedule
        # would have left queued behind a straggler (or an idle sibling)
        if counts:
            fair = -(-n // workers)
            stats["steals"] = int(sum(max(0, c - fair) for c in counts.values()))
        return outcomes, stats
