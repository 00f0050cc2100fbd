"""The globally-limited QSM(m) model (defined by the paper, Section 2).

Identical to QSM(g) except the per-processor gap is replaced by aggregate
bandwidth: shared-memory requests are injected into time slots, at most one
per processor per slot, and slot ``t`` with ``m_t`` requests is charged
``f_m(m_t)``.  A phase costs

.. math:: T = \\max(w, \\; h, \\; \\kappa, \\; c_m).

As in :mod:`repro.models.bsp_m`, the engine's ``c_m`` counts idle slots
inside the schedule span as elapsed time; the literal paper charge is in
``stats['c_m_paper']``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.costs import EXPONENTIAL, PenaltyFunction
from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.kernels import slot_charge_stats_batched
from repro.core.params import MachineParams

__all__ = ["QSMm"]


class QSMm(Machine):
    """Queuing Shared Memory machine with aggregate bandwidth ``m``."""

    uses_shared_memory = True
    slot_limited = True

    def __init__(
        self, params: MachineParams, penalty: PenaltyFunction = EXPONENTIAL
    ) -> None:
        params.require_m()
        super().__init__(params)
        self.penalty = penalty

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        w = max(record.work) if record.work else 0.0
        h = self._qsm_h(record)
        kappa = self._qsm_contention(record)
        n = record.n_reads + record.n_writes
        counts = np.bincount(self._request_slots(record))
        comm, c_m_paper, span, overloaded, _ = slot_charge_stats_batched(
            counts,
            [mach.params.require_m() for mach in machines],
            [mach.penalty for mach in machines],
        )
        out = []
        for b in range(len(machines)):
            breakdown = CostBreakdown(
                work=w,
                local_band=float(h),
                global_band=float(comm[b]),
                contention=float(kappa),
            )
            stats = {
                "h": float(h),
                "w": w,
                "kappa": float(kappa),
                "c_m": float(comm[b]),
                "c_m_paper": float(c_m_paper[b]),
                "span": span,
                "overloaded_slots": float(overloaded[b]),
                "n": float(n),
            }
            out.append((breakdown.total(), breakdown, stats))
        return out
