"""The globally-limited BSP(m) model (paper Section 2).

At each time slot of a superstep every processor may inject at most one flit;
the network absorbs up to ``m`` injections per slot, and slot ``t`` with
``m_t`` injections is charged ``f_m(m_t)`` by a pluggable penalty function
(linear for lower bounds, exponential for upper bounds).  A superstep costs

.. math:: T = \\max(w, \\; h, \\; c_m, \\; L)

where ``c_m`` prices the injection schedule.  See the timing note in
:mod:`repro.core.engine` for why the engine's ``c_m`` counts idle slots
inside the schedule span as elapsed time (exactly the paper's Section 6
accounting); the literal ``sum_t f_m(m_t)`` is reported as
``stats['c_m_paper']``.

Unlike BSP(g), *when* a processor injects matters: programs control injection
slots via ``ctx.send(..., slot=...)``, and the scheduling algorithms of
Section 6 exist precisely to pick good slots when the communication pattern
is unknown.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.costs import EXPONENTIAL, PenaltyFunction
from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.kernels import slot_charge_stats_batched
from repro.core.params import MachineParams

__all__ = ["BSPm"]


class BSPm(Machine):
    """Bulk-Synchronous Parallel machine with aggregate bandwidth ``m``.

    Parameters
    ----------
    params:
        Machine parameters; ``params.m`` must be set.
    penalty:
        The overload charge ``f_m`` (default: the paper's upper-bound
        exponential ``e^{m_t/m - 1}``).
    """

    uses_shared_memory = False
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
        h = max(self._max_per_proc_sends_recvs(record, self.params.p))
        n = record.total_flits
        counts = np.bincount(self._flit_slots(record))
        comm, c_m_paper, span, overloaded, max_load = slot_charge_stats_batched(
            counts,
            [mach.params.require_m() for mach in machines],
            [mach.penalty for mach in machines],
        )
        out = []
        for b, mach in enumerate(machines):
            breakdown = CostBreakdown(
                work=w,
                local_band=float(h),
                global_band=float(comm[b]),
                latency=mach.params.L,
            )
            stats = {
                "h": float(h),
                "w": w,
                "n": float(n),
                "c_m": float(comm[b]),
                "c_m_paper": float(c_m_paper[b]),
                "span": span,
                "overloaded_slots": float(overloaded[b]),
                "max_slot_load": float(max_load),
            }
            out.append((breakdown.total(), breakdown, stats))
        return out
