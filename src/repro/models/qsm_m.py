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

from typing import Dict, Tuple

import numpy as np

from repro.core.costs import EXPONENTIAL, PenaltyFunction
from repro.core.engine import Machine
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams
from repro.models.pricing import price_qsm_m

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

    def _price(
        self, record: SuperstepRecord
    ) -> Tuple[float, CostBreakdown, Dict[str, float]]:
        m = self.params.require_m()
        w = max(record.work) if record.work else 0.0
        h = self._qsm_h(record)
        kappa = self._qsm_contention(record)
        counts = np.bincount(self._request_slots(record))
        return price_qsm_m(
            w, h, kappa, record.n_reads + record.n_writes, counts, m, self.penalty
        )
