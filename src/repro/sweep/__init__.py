"""Parallel sweep engine: multiprocess trial fan-out with deterministic
seeding and sweep telemetry.

The layer between a single priced superstep and a paper-scale experiment:
Monte Carlo trials and parameter grids expand into pure, independently
seeded :class:`TrialTask` units (:mod:`repro.sweep.spec`), execute where
``jobs`` places them — in process (``serial``) for ``jobs=1``
(:mod:`repro.sweep.runner`), on a work-stealing pool of forked workers
that each hold one task at a time (``pool-steal``, :mod:`repro.sweep.pool`)
for ``jobs > 1``, bit-identical either way — and come back as a columnar
:class:`SweepResult` with wall-time / utilization / steal telemetry
(:mod:`repro.sweep.telemetry`).  A trial gets everything it shares with
its siblings (a relation, its offline optimum) through its parameters.
See ``docs/performance.md``.

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
]
