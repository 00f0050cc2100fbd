"""The LOGP model (Culler et al.), bulk-synchronous rendition.

The paper's introduction groups LOGP with the locally-limited models: each
processor pays an *overhead* ``o`` per message sent or received and can
inject at most one message per gap ``g``; the network imposes a *capacity
constraint* — at most ``ceil(L/g)`` messages simultaneously in transit to
or from any one processor — which the paper contrasts with the BSP(m)'s
graded penalty ("unlike, e.g., the capacity constraints of the PRAM(m) and
the LOGP, the BSP(m) ... impose[s] a penalty for overloading the network
that grows with the amount of overload").

To keep LOGP comparable to the other machines in this library we price a
bulk-synchronous superstep the standard way LOGP costs are summarized:

.. math::

    T = \\max\\bigl(w, \\; \\max_i (s_i + r_i - 1) \\cdot \\max(g, o) + 2o + L\\bigr)

(per processor: successive message submissions are ``max(g, o)`` apart,
plus the first send's overhead, the last receive's overhead, and one
network latency; see Culler et al.'s h-relation analysis).  The capacity
constraint is enforced as a hard :class:`~repro.core.engine.ModelViolation`
when any processor is the destination of more than ``ceil(L/g)`` messages
injected in one time slot — the executable form of "no graded penalty:
overloading is simply forbidden".  Each machine of a priced batch checks
its own ``ceil(L/g)`` against the superstep's peak, which is counted once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.engine import Machine, ModelViolation, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord

__all__ = ["LogP"]


class LogP(Machine):
    """LOGP machine: latency ``L``, overhead ``o``, gap ``g``, ``P = p``.

    ``params.o`` must be positive to be meaningfully LOGP; ``params.g`` is
    the per-processor gap and ``params.L`` the latency.
    """

    uses_shared_memory = False
    slot_limited = False

    @property
    def capacity(self) -> int:
        """The LOGP capacity constraint ``ceil(L/g)``."""
        return max(1, math.ceil(self.params.L / self.params.g))

    @staticmethod
    def _peak_in_flight(record: SuperstepRecord) -> float:
        """Most messages injected to one processor in one time slot (messages
        injected together arrive together in a bulk-synchronous step): one
        weighted ``bincount`` over ``(dest, slot)`` keys."""
        batch = record.msg_batch
        if not batch.n:
            return 0.0
        span = int(batch.slot.max()) + 1
        return np.bincount(batch.dest * span + batch.slot, weights=batch.size).max()

    def _raise_capacity(self, record: SuperstepRecord) -> None:
        """Report the first ``(dest, slot)`` over ``ceil(L/g)`` in record order
        (called only once the peak is known to exceed it)."""
        cap = self.capacity
        batch = record.msg_batch
        in_flight: Dict[Tuple[int, int], int] = {}
        for dest, slot, size in zip(
            batch.dest.tolist(), batch.slot.tolist(), batch.size.tolist()
        ):
            key = (dest, slot)
            in_flight[key] = in_flight.get(key, 0) + size
            if in_flight[key] > cap:
                raise ModelViolation(
                    f"LOGP capacity exceeded: {in_flight[key]} messages in "
                    f"transit to processor {dest} at slot {slot} "
                    f"(capacity ceil(L/g) = {cap})"
                )

    def _price_batch(
        self, record: SuperstepRecord, machines: Sequence[Machine]
    ) -> List[PriceResult]:
        peak = self._peak_in_flight(record)
        for mach in machines:
            if peak > mach.capacity:
                mach._raise_capacity(record)
        w = max(record.work) if record.work else 0.0
        sends = record.sends_by_proc(self.params.p)
        recvs = record.recvs_by_proc(self.params.p)
        per_proc_msgs = int((sends + recvs).max()) if sends.size else 0
        h = float(max(int(sends.max()), int(recvs.max())) if sends.size else 0)
        out = []
        for mach in machines:
            g, o, L = mach.params.g, mach.params.o, mach.params.L
            if per_proc_msgs > 0:
                comm = (per_proc_msgs - 1) * max(g, o) + 2 * o + L
            else:
                comm = 0.0
            breakdown = CostBreakdown(
                work=w, local_band=comm, latency=L if per_proc_msgs else 0.0
            )
            stats = {
                "h": h,
                "w": w,
                "n": float(record.total_flits),
                "per_proc_msgs": float(per_proc_msgs),
            }
            out.append((max(w, comm), breakdown, stats))
        return out
