"""The self-scheduling BSP(m) model (paper Section 2, "A simplified cost
metric").

Injection times within a superstep are ignored and a superstep transmitting
``n`` flits in total costs

.. math:: T = \\max(w, \\; h, \\; n/m, \\; L).

Section 6's Unbalanced-Send theorem is exactly the statement that any
algorithm written against this metric can be executed on the real BSP(m) at a
``(1 + eps)`` factor w.h.p. — the :mod:`repro.scheduling` package provides
the transformation, and ``benchmarks/bench_self_scheduling.py`` measures the
factor empirically.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams

__all__ = ["SelfSchedulingBSPm"]


class SelfSchedulingBSPm(Machine):
    """BSP(m) variant charging ``max(w, h, n/m, L)`` per superstep."""

    uses_shared_memory = False
    slot_limited = False  # slots are ignored, so no per-slot rule to enforce

    def __init__(self, params: MachineParams) -> None:
        params.require_m()
        super().__init__(params)

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        w = max(record.work) if record.work else 0.0
        h = max(self._max_per_proc_sends_recvs(record, self.params.p))
        n = record.total_flits
        out = []
        for mach in machines:
            breakdown = CostBreakdown(
                work=w,
                local_band=float(h),
                global_band=n / mach.params.require_m(),
                latency=mach.params.L,
            )
            stats = {"h": float(h), "w": w, "n": float(n)}
            out.append((breakdown.total(), breakdown, stats))
        return out
