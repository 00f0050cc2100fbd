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

from typing import Dict, Tuple

from repro.core.engine import Machine
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams
from repro.models.pricing import price_bsp_g

__all__ = ["BSPg"]


class BSPg(Machine):
    """Bulk-Synchronous Parallel machine with per-processor gap ``g``."""

    uses_shared_memory = False
    slot_limited = False

    def __init__(self, params: MachineParams) -> None:
        super().__init__(params)

    def _price(
        self, record: SuperstepRecord
    ) -> Tuple[float, CostBreakdown, Dict[str, float]]:
        p = self.params.p
        w = max(record.work) if record.work else 0.0
        s_max, r_max = self._max_per_proc_sends_recvs(record, p)
        h = max(s_max, r_max)
        return price_bsp_g(w, h, record.total_flits, self.params.g, self.params.L)
