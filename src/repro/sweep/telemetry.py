"""Columnar sweep telemetry: per-trial wall time, worker attribution,
cache effectiveness, and JSON export.

:class:`SweepResult` is the runner's return type.  Trial outputs are kept
in task order (``results[i]`` belongs to ``tasks()[i]``, pool or serial),
so downstream aggregation is deterministic.  Telemetry columns are
structure-of-arrays (NumPy), matching the repo's columnar idiom: summaries
(utilization, hit rate, slowest trial) are single vector reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

__all__ = ["TrialRecord", "SweepResult", "TELEMETRY_SCHEMA_VERSION"]

#: Telemetry/JSON schema: 1 = the original columnar export; 2 adds
#: ``schema_version`` itself plus the sweep's root ``seed`` (satellite of
#: the observability PR), making exported records self-describing; 3 adds
#: the error-policy columns (``status``/``attempts``/``error`` per trial,
#: the ``errors`` summary block) introduced with ``on_error=``; 4 adds the
#: ``backend`` execution block (the name of the backend that ran the sweep,
#: per-worker task counts and busy seconds, steals, peak queue depth,
#: worker deaths) — and, with the work-stealing pool, failure accounting
#: became per *task*: a hard worker death skips exactly the in-flight
#: trial (``worker`` = the dead pid, or -1 when it died unattributed),
#: never a whole chunk; 5 adds the ``ledger`` block — the merged
#: :class:`~repro.obs.ledger.LoadLedger` summary (total charge, charge by
#: binding restriction, flit totals, mean utilizations) accumulated from
#: per-trial worker dumps in task order, present when a ledger was active
#: during the sweep and ``None`` otherwise; 6 adds the ``batch`` block
#: (batched multi-trial execution: whether fingerprint grouping engaged,
#: group count and sizes, dispatch units actually shipped to the backend,
#: the trials-per-dispatch amortization ratio, and batches that fell back
#: to per-trial execution after an error).
TELEMETRY_SCHEMA_VERSION = 6


@dataclass(frozen=True)
class TrialRecord:
    """Telemetry of one executed trial (not its scientific output)."""

    index: int
    point: str
    trial: int
    wall_time: float  # seconds inside the trial fn
    worker: int  # executing process id (-1: died before reporting one)
    cache_hits: int  # memo-cache hits during this trial
    cache_misses: int
    attempts: int = 1  # executions under on_error="retry:N" (1 = first try)
    status: str = "ok"  # "ok" | "skipped" (failed under skip/retry policy)
    error: str = ""  # repr of the final failure when skipped


@dataclass
class SweepResult:
    """Ordered trial outputs plus columnar execution telemetry."""

    name: str
    jobs: int
    elapsed: float  # wall-clock of the whole sweep, seconds
    results: List[Any]  # trial outputs, task order
    records: List[TrialRecord]  # telemetry, task order
    point_keys: List[str] = field(default_factory=list)
    #: root seed of the sweep — an int, a replayable ``SeedSequence(...)``
    #: expression string, or None when the spec was unseeded
    seed: Any = None
    #: name of the executor backend that ran the sweep
    backend: str = "serial"
    #: the backend's execution report (worker task counts, steals, queue
    #: depth, worker deaths) — see ``repro.sweep.backends.base.new_stats``
    backend_stats: Dict[str, Any] = field(default_factory=dict)
    #: merged :meth:`~repro.obs.ledger.LoadLedger.summary` accumulated
    #: from per-trial dumps in task order (``None``: no ledger was active)
    ledger: Any = None
    #: batched-execution report from the runner's fingerprint grouping
    #: (see :func:`repro.sweep.spec.group_batch_tasks`); always a dict,
    #: ``{"enabled": False, ...}`` when batching did not engage
    batch_stats: Dict[str, Any] = field(default_factory=dict)

    # -- columnar views -------------------------------------------------
    @property
    def wall_times(self) -> np.ndarray:
        """Per-trial wall times, task order (float64 seconds)."""
        return np.asarray([r.wall_time for r in self.records], dtype=np.float64)

    @property
    def workers(self) -> np.ndarray:
        """Executing pid per trial, task order."""
        return np.asarray([r.worker for r in self.records], dtype=np.int64)

    # -- aggregates -----------------------------------------------------
    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def busy_time(self) -> float:
        """Total seconds spent inside trial functions (across workers)."""
        return float(self.wall_times.sum()) if self.records else 0.0

    @property
    def utilization(self) -> float:
        """``busy_time / (jobs * elapsed)`` — 1.0 means every worker slot
        computed the whole time; low values flag dispatch overhead or a
        straggler-dominated grid."""
        denom = self.jobs * self.elapsed
        return self.busy_time / denom if denom > 0 else 0.0

    @property
    def n_workers(self) -> int:
        """Distinct processes that executed at least one trial."""
        return int(np.unique(self.workers).size) if self.records else 0

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.records)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.records)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def skipped(self) -> int:
        """Trials that failed under ``on_error="skip"``/``"retry:N"``
        (their ``results`` entry is ``None``)."""
        return sum(1 for r in self.records if r.status != "ok")

    @property
    def retried(self) -> int:
        """Trials that needed more than one attempt (successful or not)."""
        return sum(1 for r in self.records if r.attempts > 1)

    @property
    def retries(self) -> int:
        """Total extra attempts across all trials."""
        return sum(r.attempts - 1 for r in self.records)

    def busy_by_worker(self) -> Dict[int, float]:
        """Seconds inside trial functions per executing pid — the
        per-worker utilization picture a straggler or an idle worker
        shows up in."""
        out: Dict[int, float] = {}
        for r in self.records:
            out[r.worker] = out.get(r.worker, 0.0) + r.wall_time
        return dict(sorted(out.items()))

    def results_by_point(self) -> Dict[str, List[Any]]:
        """Trial outputs grouped by grid point, trial order within each."""
        out: Dict[str, List[Any]] = {k: [] for k in self.point_keys}
        for rec, res in zip(self.records, self.results):
            out.setdefault(rec.point, []).append(res)
        return out

    # -- export ---------------------------------------------------------
    def telemetry(self) -> Dict[str, Any]:
        """The summary block (no per-trial outputs)."""
        wt = self.wall_times
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "jobs": self.jobs,
            "trials": self.trials,
            "elapsed_s": self.elapsed,
            "busy_s": self.busy_time,
            "utilization": self.utilization,
            "workers": self.n_workers,
            "trial_wall_s": {
                "mean": float(wt.mean()) if wt.size else 0.0,
                "max": float(wt.max()) if wt.size else 0.0,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "errors": {
                "skipped": self.skipped,
                "retried": self.retried,
                "retries": self.retries,
            },
            "backend": {
                "name": self.backend,
                "pool_workers": self.backend_stats.get("workers", 1),
                "tasks_per_worker": self.backend_stats.get("tasks_per_worker", {}),
                "busy_s_per_worker": self.busy_by_worker(),
                "steals": self.backend_stats.get("steals", 0),
                "max_queue_depth": self.backend_stats.get("max_queue_depth", 0),
                "worker_deaths": self.backend_stats.get("worker_deaths", 0),
            },
            "ledger": self.ledger,
            "batch": dict(self.batch_stats) if self.batch_stats else {"enabled": False},
        }

    def to_dict(self, include_trials: bool = True) -> Dict[str, Any]:
        """JSON-ready record: summary telemetry plus (optionally) the
        per-trial columns and outputs."""
        out = self.telemetry()
        if include_trials:
            out["trial_columns"] = {
                "point": [r.point for r in self.records],
                "trial": [r.trial for r in self.records],
                "wall_s": [r.wall_time for r in self.records],
                "worker": [r.worker for r in self.records],
                "cache_hits": [r.cache_hits for r in self.records],
                "cache_misses": [r.cache_misses for r in self.records],
                "status": [r.status for r in self.records],
                "attempts": [r.attempts for r in self.records],
                "error": [r.error for r in self.records],
            }
            out["results"] = self.results
        return out

    def to_json(self, path: str, include_trials: bool = True) -> None:
        """Write :meth:`to_dict` to ``path``."""
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(include_trials=include_trials), fh, indent=2, default=float)
            fh.write("\n")
