"""The in-process backend: where ``jobs=1`` sweeps (and sweeps with at
most one task) run, and the bit-identity reference the pool backend is
gated against.

Runs tasks one after another in the calling process.  Trial spans and
load-ledger rows are captured by the shared per-trial core
(:func:`~repro.sweep.backends.base.execute_task` installs scratch
instruments and ships their dumps in the payload), exactly as on the
pool backend — the runner splices them in task order, so the serial
trace/ledger is the same artifact the pool produces, by construction.
Under ``mode="raise"`` it stops at the first failing trial, leaving
trailing outcomes ``None``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

from repro.sweep.backends.base import (
    BackendStats,
    TaskOutcome,
    attempt_task,
    new_stats,
)
from repro.sweep.spec import TrialTask

__all__ = ["SerialBackend"]


class SerialBackend:
    """Execute every task in the current process, in task order."""

    name = "serial"

    def run(
        self,
        tasks: Sequence[TrialTask],
        *,
        jobs: int,
        collect_metrics: bool,
        mode: str,
        retries: int,
        collect_spans: bool = False,
        collect_ledger: Optional[bool] = None,
    ) -> Tuple[List[Optional[TaskOutcome]], BackendStats]:
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        stats = new_stats(self.name, workers=1)
        executed = 0
        for i, task in enumerate(tasks):
            status, payload, attempts, _ = attempt_task(
                task, collect_metrics, mode, retries,
                collect_spans=collect_spans, collect_ledger=collect_ledger,
            )
            outcomes[i] = (status, payload, attempts)
            executed += 1
            if status == "err" and mode == "raise":
                break  # the runner raises at this outcome; the rest stay None
        stats["tasks_per_worker"] = {os.getpid(): executed}
        return outcomes, stats
