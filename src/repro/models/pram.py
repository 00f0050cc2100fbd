"""Synchronous PRAM substrate (EREW / QRQW / Arbitrary-CRCW).

The paper leans on PRAMs in three ways, all of which this module supports:

1. EREW/QRQW PRAM algorithms are mapped onto the QSM(m)/BSP(m) by the
   generic emulation of Section 4 (input distribution + naive simulation on
   ``m`` processors) — see :mod:`repro.algorithms.emulation`.
2. The Arbitrary-CRCW PRAM realizes h-relations in ``O(h)`` time (Section
   4.1), the gadget behind converting CRCW lower bounds into BSP(g) lower
   bounds — see :mod:`repro.algorithms.h_relation`.
3. The CRCW PRAM(m) of Section 5 is the ``m``-cell restriction; see
   :mod:`repro.models.pram_m`.

Programs use the same generator/`yield` style as the bulk-synchronous
machines, but here every ``yield`` is a single synchronous PRAM step.  Reads
issued in a step return the cell contents from *before* that step's writes
(standard read-then-write PRAM semantics); concurrent writes resolve by the
Arbitrary rule (the engine deterministically lets the last write request in
processor order win, which is one admissible adversary choice).

Step costs:

========  ==================================================================
EREW      1 per step; any location touched by two requests raises
          :class:`~repro.core.engine.ModelViolation`.
QRQW      ``max(w, kappa)`` per step — the queue-read queue-write rule.
CRCW      1 per step (i.e. ``max(w, 1)``); concurrent and mixed access OK.
========  ==================================================================
"""

from __future__ import annotations

import enum
from typing import List, Sequence, Tuple

from repro.core.engine import Machine, ModelViolation, PriceResult, _addr_group_stats
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.params import MachineParams

__all__ = ["PRAM", "ConcurrencyRule"]


class ConcurrencyRule(str, enum.Enum):
    """Memory-access discipline of a PRAM variant."""

    EREW = "erew"
    QRQW = "qrqw"
    CRCW = "crcw"  # Arbitrary write resolution


class PRAM(Machine):
    """Synchronous PRAM with a selectable concurrency rule.

    Parameters
    ----------
    params:
        Only ``params.p`` is meaningful; ``g``/``m``/``L`` are ignored —
        the PRAM is the bandwidth-unlimited substrate.
    rule:
        One of :class:`ConcurrencyRule` (or its string value).
    """

    uses_shared_memory = True
    slot_limited = False

    def __init__(
        self,
        params: MachineParams,
        rule: ConcurrencyRule | str = ConcurrencyRule.CRCW,
    ) -> None:
        super().__init__(params)
        self.rule = ConcurrencyRule(rule)

    # ------------------------------------------------------------------
    def _contention(self, record: SuperstepRecord) -> Tuple[int, int]:
        """(max read contention, max write contention) per location —
        mixed access allowed (read-then-write step semantics).  Group-by
        runs on the record's address columns (``np.unique`` for integer
        address spaces) rather than a per-request dict loop."""
        rb, wb = record.read_batch, record.write_batch
        max_r = _addr_group_stats(rb.addr)[0] if rb.n else 0
        max_w = _addr_group_stats(wb.addr)[0] if wb.n else 0
        return max_r, max_w

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        w = max(record.work) if record.work else 0.0
        kappa = max(self._contention(record))
        out = []
        for mach in machines:
            if mach.rule is ConcurrencyRule.EREW and kappa > 1:
                raise ModelViolation(
                    f"EREW PRAM step {record.index} has contention {kappa} > 1"
                )
            if mach.rule is ConcurrencyRule.QRQW:
                step_cost = max(w, float(kappa), 1.0)
                contention = float(kappa)
            else:
                step_cost = max(w, 1.0)
                contention = float(min(kappa, 1))
            breakdown = CostBreakdown(work=w, contention=contention)
            # A PRAM step always takes at least unit time.
            cost = max(step_cost, breakdown.total(), 1.0)
            stats = {
                "w": w,
                "kappa": float(kappa),
                "reads": float(record.n_reads),
                "writes": float(record.n_writes),
            }
            out.append((cost, breakdown, stats))
        return out
