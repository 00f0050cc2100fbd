"""The locally-limited BSP(g) model (Valiant 1990, paper Section 2).

A superstep in which processor ``i`` performs ``w_i`` local work, sends
``s_i`` flits and receives ``r_i`` flits costs

.. math:: T = \\max(w, \\; g \\cdot h, \\; L)

with ``w = max_i w_i`` and ``h = max_i max(s_i, r_i)``.  Injection slots are
irrelevant: the machine charges only the per-processor maxima, so no message
scheduling can help — this is the executable form of the paper's observation
that "no special scheduling is needed for locally-limited models".
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams

__all__ = ["BSPg"]


class BSPg(Machine):
    """Bulk-Synchronous Parallel machine with per-processor gap ``g``."""

    uses_shared_memory = False
    slot_limited = False

    def __init__(self, params: MachineParams) -> None:
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
                work=w, local_band=mach.params.g * h, latency=mach.params.L
            )
            stats = {"h": float(h), "w": w, "n": float(n)}
            out.append((breakdown.total(), breakdown, stats))
        return out
