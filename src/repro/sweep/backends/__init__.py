"""The two sweep placements.

:func:`repro.sweep.run_sweep` owns determinism (task expansion, per-task
seed derivation, task-order reassembly and metrics merging); a backend
owns *placement* — where the trial functions actually execute:

========== =============================================================
``serial``      in-process, in order; the bit-identity reference
``pool-steal``  persistent worker pool, shared task queue
                (self-scheduling / work-stealing), per-task dispatch,
                warm-started memo cache, exact per-task death accounting
========== =============================================================

``jobs`` alone picks between them: ``serial`` for ``jobs=1`` or a sweep
with at most one dispatch unit, ``pool-steal`` otherwise.
"""

from __future__ import annotations

from repro.sweep.backends.pool_steal import PoolStealBackend, WorkerDied
from repro.sweep.backends.serial import SerialBackend

__all__ = ["PoolStealBackend", "SerialBackend", "WorkerDied"]
