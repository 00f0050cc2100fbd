"""Core machinery: parameters, penalty/cost functions, and the engine.

Exports load on first access (:mod:`repro._lazy`), so importing
:mod:`repro.core.params` does not pull in NumPy or the engine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.params": ["MachineParams"],
    "repro.core.costs": [
        "PenaltyFunction",
        "LinearPenalty",
        "ExponentialPenalty",
        "PolynomialPenalty",
        "CapacityPenalty",
        "LINEAR",
        "EXPONENTIAL",
        "superstep_charge",
        "slot_charges",
    ],
    "repro.core.engine": [
        "Machine",
        "Proc",
        "ReadHandle",
        "RunResult",
        "ModelViolation",
        "ProgramError",
        "RunAborted",
    ],
    "repro.core.events": [
        "Message",
        "ReadRequest",
        "WriteRequest",
        "SuperstepRecord",
        "CostBreakdown",
    ],
})
