"""Parallel sweep engine: multiprocess trial fan-out with deterministic
seeding, schedule-result caching, and sweep telemetry.

The layer between a single priced superstep and a paper-scale experiment:
Monte Carlo trials and parameter grids expand into pure, independently
seeded :class:`TrialTask` units (:mod:`repro.sweep.spec`), execute where
``jobs`` places them (:mod:`repro.sweep.backends`) — a work-stealing
persistent worker pool (``pool-steal``) for ``jobs > 1``, a bit-identical
in-process run (``serial``) for ``jobs=1`` — share expensive
offline-optimal intermediates through a keyed memo cache
(:mod:`repro.sweep.cache`), and come back as a
columnar :class:`SweepResult` with wall-time / utilization / steal / cache
telemetry (:mod:`repro.sweep.telemetry`).  See ``docs/performance.md``.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        name="my_experiment",
        fn=my_trial,                    # module-level: fn(seed=..., **params)
        grid={"small": {"p": 64}, "large": {"p": 1024}},
        trials=100,
        seed=0,
    )
    result = run_sweep(spec, jobs=4)    # == run_sweep(spec, jobs=1), faster
    by_point = result.results_by_point()
    print(result.telemetry())
"""

from repro.sweep.cache import (
    CacheStats,
    cache_stats,
    cached_offline_report,
    cached_offline_schedule,
    clear_cache,
    persistent_store,
    set_persistent_store,
)
from repro.sweep.runner import (
    TrialExecutionError,
    parse_on_error,
    resolve_jobs,
    run_sweep,
)
from repro.sweep.spec import SweepSpec, TrialTask, grid_points
from repro.sweep.telemetry import TELEMETRY_SCHEMA_VERSION, SweepResult, TrialRecord

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "SweepSpec",
    "TrialTask",
    "grid_points",
    "run_sweep",
    "resolve_jobs",
    "parse_on_error",
    "TrialExecutionError",
    "SweepResult",
    "TrialRecord",
    "cached_offline_schedule",
    "cached_offline_report",
    "cache_stats",
    "clear_cache",
    "persistent_store",
    "set_persistent_store",
    "CacheStats",
]
