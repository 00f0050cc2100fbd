"""The two-parameter bandwidth model of the paper's footnote 2.

Defining the self-scheduling BSP(m), the paper notes it "is similar to a
model where the cost of a superstep is ``g1·n/p + g2·h``, as proposed in
the conclusion of [36]" (Juurlink–Wijshoff's E-BSP paper).  This machine
makes that comparison executable: an *additive* combination of an
aggregate term (``g1·n/p`` — total volume divided by machine width) and a
local term (``g2·h``), instead of the paper's ``max``-combined
``max(h, n/m)``.

With ``g1 = p/m`` and ``g2 = 1`` the two models agree within a factor of 2
(``max(a,b) <= a+b <= 2·max(a,b)``), which the tests pin down — the
footnote's "similar" made precise.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams

__all__ = ["TwoLevelBSP"]


class TwoLevelBSP(Machine):
    """BSP variant charging ``max(w, g1·n/p + g2·h, L)`` per superstep.

    Parameters
    ----------
    params:
        Machine parameters (only ``p`` and ``L`` are used directly).
    g1:
        Aggregate-bandwidth coefficient (the paper's matched setting uses
        ``g1 = p/m`` so that ``g1·n/p = n/m``).
    g2:
        Per-processor coefficient.
    """

    uses_shared_memory = False
    slot_limited = False  # additive metric: injection times are irrelevant

    def __init__(self, params: MachineParams, g1: float = 1.0, g2: float = 1.0) -> None:
        super().__init__(params)
        if g1 < 0 or g2 < 0:
            raise ValueError(f"g1, g2 must be non-negative, got {g1}, {g2}")
        self.g1 = g1
        self.g2 = g2

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        w = max(record.work) if record.work else 0.0
        h = max(self._max_per_proc_sends_recvs(record, self.params.p))
        n = record.total_flits
        out = []
        for mach in machines:
            p, L = mach.params.p, mach.params.L
            comm = mach.g1 * n / p + mach.g2 * h
            breakdown = CostBreakdown(
                work=w, local_band=mach.g2 * h, global_band=mach.g1 * n / p,
                latency=L,
            )
            stats = {"h": float(h), "w": w, "n": float(n), "comm": comm}
            out.append((max(w, comm, L), breakdown, stats))
        return out
