"""repro — reproduction of *Modeling Parallel Bandwidth: Local vs. Global
Restrictions* (Adler, Gibbons, Matias, Ramachandran; SPAA 1997).

The package provides:

* simulators for the paper's four bandwidth-limited models — BSP(g), BSP(m),
  QSM(g), QSM(m) — plus the self-scheduling BSP(m) metric and the PRAM /
  PRAM(m) substrates (:mod:`repro.models`);
* the basic algorithms of Table 1 (:mod:`repro.algorithms`);
* the randomized unbalanced-h-relation schedulers of Section 6
  (:mod:`repro.scheduling`);
* the dynamic adversarial-queuing machinery of Section 6.2
  (:mod:`repro.dynamic`);
* the concurrent-read results of Section 5 (:mod:`repro.concurrent_read`);
* executable closed-form bounds for every Table-1 cell and theorem
  (:mod:`repro.theory`);
* workload generators (:mod:`repro.workloads`);
* fault injection, run watchdogs, and an exactly-once reliable transport
  priced against the bandwidth limit (:mod:`repro.faults`).

Quickstart::

    from repro import MachineParams, BSPm, BSPg
    from repro.workloads import zipf_h_relation
    from repro.scheduling import unbalanced_send, evaluate_schedule

    local, global_ = MachineParams.matched_pair(p=1024, m=64, L=16)
    rel = zipf_h_relation(p=1024, n=100_000, alpha=1.2, seed=0)
    sched = unbalanced_send(rel.sizes, m=64, epsilon=0.1, seed=1)
    report = evaluate_schedule(sched, rel, global_)
    print(report.completion_time, report.optimal_time)

The top-level names load on first access (:mod:`repro._lazy`): ``import
repro`` alone costs no NumPy, which keeps ``python -m repro serve``
start-up to the standard library plus the serving front end.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core": [
        "MachineParams",
        "PenaltyFunction",
        "LinearPenalty",
        "ExponentialPenalty",
        "PolynomialPenalty",
        "CapacityPenalty",
        "LINEAR",
        "EXPONENTIAL",
        "Machine",
        "RunResult",
        "ModelViolation",
        "ProgramError",
        "RunAborted",
        "Message",
    ],
    "repro.models": [
        "BSPg",
        "BSPm",
        "SelfSchedulingBSPm",
        "QSMg",
        "QSMm",
        "PRAM",
        "PRAMm",
        "ConcurrencyRule",
        "LogP",
        "TwoLevelBSP",
    ],
})
__all__.append("__version__")
