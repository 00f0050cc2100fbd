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

from typing import Dict, Tuple

from repro.core.engine import Machine
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams
from repro.models.pricing import price_self_scheduling

__all__ = ["SelfSchedulingBSPm"]


class SelfSchedulingBSPm(Machine):
    """BSP(m) variant charging ``max(w, h, n/m, L)`` per superstep."""

    uses_shared_memory = False
    slot_limited = False  # slots are ignored, so no per-slot rule to enforce

    def __init__(self, params: MachineParams) -> None:
        params.require_m()
        super().__init__(params)

    def _price(
        self, record: SuperstepRecord
    ) -> Tuple[float, CostBreakdown, Dict[str, float]]:
        p = self.params.p
        m = self.params.require_m()
        w = max(record.work) if record.work else 0.0
        s_max, r_max = self._max_per_proc_sends_recvs(record, p)
        h = max(s_max, r_max)
        return price_self_scheduling(
            w, h, record.total_flits, m, self.params.L
        )
