"""Pluggable sweep execution backends.

:func:`repro.sweep.run_sweep` owns determinism (task expansion, per-task
seed derivation, task-order reassembly and metrics merging); a backend
owns *placement* — where the trial functions actually execute:

========== =============================================================
``serial``      in-process, in order; the bit-identity reference
``pool-steal``  persistent worker pool, shared task queue
                (self-scheduling / work-stealing), per-task dispatch,
                warm-started memo cache, exact per-task death accounting
========== =============================================================

``resolve_backend(None, ...)`` (or ``"auto"``) picks ``serial`` for
``jobs=1`` / single-task sweeps and ``pool-steal`` otherwise — so
existing ``run_sweep(spec, jobs=N)`` callers get work-stealing without
code changes, and the serial path stays byte-for-byte what it was.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.sweep.backends.base import (
    BackendStats,
    ExecutorBackend,
    TaskOutcome,
)
from repro.sweep.backends.pool_steal import PoolStealBackend, WorkerDied
from repro.sweep.backends.serial import SerialBackend

__all__ = [
    "BACKENDS",
    "BackendStats",
    "ExecutorBackend",
    "PoolStealBackend",
    "SerialBackend",
    "TaskOutcome",
    "WorkerDied",
    "get_backend",
    "resolve_backend",
]

#: registry of constructible backends, keyed by CLI/telemetry name
BACKENDS: Dict[str, Type] = {
    "serial": SerialBackend,
    "pool-steal": PoolStealBackend,
}


def get_backend(name: str) -> ExecutorBackend:
    """Instantiate a registered backend by name.

    Unknown names raise :class:`ValueError` listing the registry.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep backend {name!r}; registered: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None
    return cls()


def resolve_backend(
    name: Optional[str], jobs: int, n_tasks: int
) -> ExecutorBackend:
    """Pick the backend for a sweep: an explicit ``name`` is always
    honored; ``None``/``"auto"`` selects ``serial`` when there is nothing
    to parallelize (``jobs == 1`` or a single task) and ``pool-steal``
    otherwise."""
    if name is None or name == "auto":
        if jobs == 1 or n_tasks <= 1:
            return SerialBackend()
        return PoolStealBackend()
    return get_backend(name)
