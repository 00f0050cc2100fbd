"""The Queuing Shared Memory model QSM(g) (Gibbons–Matias–Ramachandran,
paper Section 2).

Processors alternate bulk-synchronous *phases* of shared-memory reads,
shared-memory writes and local computation.  A phase with per-processor work
``c_i``, read counts ``r_i``, write counts ``w_i`` and maximum per-location
contention ``kappa`` costs

.. math:: T = \\max(w, \\; g \\cdot h, \\; \\kappa)

with ``w = max_i c_i`` and ``h = max(1, max_i(r_i, w_i))``.  Note the
asymmetry the paper highlights: the model charges ``g`` per request at a
*processor* but only 1 per request at a *location*.

Model rules enforced by the engine:

* a read's value is usable only in a subsequent phase;
* a location may be read concurrently or written concurrently in a phase,
  but not both;
* concurrent writes resolve by the Arbitrary rule.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams

__all__ = ["QSMg"]


class QSMg(Machine):
    """Queuing Shared Memory machine with per-processor gap ``g``."""

    uses_shared_memory = True
    slot_limited = False

    def __init__(self, params: MachineParams) -> None:
        super().__init__(params)

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        w = max(record.work) if record.work else 0.0
        h = self._qsm_h(record)
        kappa = self._qsm_contention(record)
        n = record.n_reads + record.n_writes
        out = []
        for mach in machines:
            breakdown = CostBreakdown(
                work=w, local_band=mach.params.g * h, contention=float(kappa)
            )
            stats = {"h": float(h), "w": w, "kappa": float(kappa), "n": float(n)}
            out.append((breakdown.total(), breakdown, stats))
        return out
