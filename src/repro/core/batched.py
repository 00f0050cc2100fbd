"""Batched multi-trial replay: one recorded schedule, B parameter points.

Many experiments price the *same* straight-line program under many
``(g, m, L, penalty)`` points.  :func:`replay_batch` is their entry
point to :meth:`~repro.core.compiled.CompiledProgram.replay_batch`, the
one replay loop; ``pricing_ablation`` prices its whole grid in one call,
observed or not (the sweep runner fuses nothing itself).  Each frame is
priced by one call of the model's
:meth:`~repro.core.engine.Machine._price_batch`, which derives the
superstep's structure (max work, per-processor ``h``, the slot-injection
histogram, QSM contention) once and prices it under all B machines'
parameters, with one histogram pass per penalty family; shared-memory
writes are applied per machine.

Bit-identity contract
---------------------
``replay_batch(compiled, machines)[b]`` equals
``compiled.replay(machines[b])`` exactly — model times, cost breakdowns
and stats dicts (values *and* key insertion order).  Sequential replay
is the batch of one, and each trial's row of the slot-charge kernel
(:func:`repro.core.kernels.slot_charge_stats_batched`) does not depend on
its batch-mates, so no second floating-point path exists to drift.  The
contract is gated by ``tests/test_batched_replay.py``, and every model's
pricing by the ``core/costs.py`` oracle in
``tests/test_pricing_oracle.py``.

When batching engages
---------------------
Always: all machines must be instances of the *same* concrete model
class (any model — each prices through its own ``_price_batch``),
recorded and replayed on the same memory kind, with enough processors
and no fault injector.  A model rule a machine breaks (a LogP over its
``ceil(L/g)`` capacity, an EREW PRAM step with contention, a PRAM(m)
address past its ``m``) raises the same
:class:`~repro.core.engine.ModelViolation` its sequential replay would.
An installed tracer, metrics registry or ledger does not change the
pass: it observes each trial's finished records afterwards, in order,
exactly as B sequential replays would have fed it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.compiled import CompiledProgram
from repro.core.engine import Machine, RunResult

__all__ = ["replay_batch"]


def replay_batch(
    compiled: CompiledProgram, machines: Sequence[Machine]
) -> List[RunResult]:
    """Replay ``compiled`` on every machine in one fused pass.

    Element ``b`` of the returned list is bit-identical to
    ``compiled.replay(machines[b])`` (see module docstring); this is
    :meth:`CompiledProgram.replay_batch <repro.core.compiled.
    CompiledProgram.replay_batch>`.
    """
    return compiled.replay_batch(machines)
