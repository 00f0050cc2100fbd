"""Chaos-harness sweep trials: many seeded fault-injection runs at once.

``python -m repro chaos --trials N --jobs J`` fans N independent chaos
runs (fresh workload, fresh fault plan, fresh transport randomness per
trial — all derived from one root seed) through the sweep engine and
aggregates delivery/loss/retry statistics.  :func:`chaos_trial` is the
module-level (picklable) unit of parallelism; one trial is exactly what
the single-run chaos command executes.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.core.params import MachineParams
from repro.faults.plan import CrashSpec, FaultPlan, StallSpec
from repro.workloads.relations import build_relation

__all__ = ["chaos_trial", "summarize_chaos_sweep"]


def _int_seed(seq: np.random.SeedSequence) -> int:
    """A stable 32-bit int drawn from a SeedSequence, for components (like
    :class:`FaultPlan`) whose seed field is an integer."""
    return int(seq.generate_state(1, np.uint32)[0])


def chaos_trial(
    workload: str,
    p: int,
    n: int,
    m: int,
    L: float,
    alpha: float,
    epsilon: float,
    drop_rate: float,
    duplicate_rate: float,
    reorder_rate: float,
    corrupt_rate: float,
    stalls: Sequence[Tuple[int, int, int]],
    crashes: Sequence[Tuple[int, int, int]],
    max_rounds: int,
    backoff_base: int,
    audit: bool,
    seed,
) -> Dict[str, Any]:
    """One chaos run: route ``workload`` through a seeded fault plan with
    the reliable transport; returns the transport report dict (with
    ``failed``/``error`` set when the transport gave up).

    ``seed`` is a per-trial :class:`~numpy.random.SeedSequence`; workload,
    fault plan, and transport randomness are independent children of it.
    """
    from repro.faults.transport import TransportError
    from repro.models.bsp_m import BSPm
    from repro.scheduling.execute import route_reliable

    rel_seed, plan_seed, transport_seed = seed.spawn(3)
    rel = build_relation(workload, p, n, alpha, rel_seed)
    machine = BSPm(MachineParams(p=p, m=m, L=L))
    plan = FaultPlan(
        seed=_int_seed(plan_seed),
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        reorder_rate=reorder_rate,
        corrupt_rate=corrupt_rate,
        stalls=tuple(StallSpec(pid=a, start=b, duration=c) for a, b, c in stalls),
        crashes=tuple(CrashSpec(pid=a, start=b, duration=c) for a, b, c in crashes),
    )
    machine.inject_faults(plan)
    try:
        result = route_reliable(
            machine, rel,
            epsilon=epsilon, seed=transport_seed,
            max_rounds=max_rounds, backoff_base=backoff_base, audit=audit,
        )
        report = result.to_dict()
        report["failed"] = False
    except TransportError as exc:
        report = exc.result.to_dict()
        report["failed"] = True
        report["error"] = str(exc)
    return report


def summarize_chaos_sweep(reports: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a chaos sweep's trial reports into the statistics the
    single-run table prints, plus across-trial spread.

    ``None`` entries (trials skipped under ``run_sweep(on_error=...)``)
    are excluded from the statistics and counted in ``skipped``.
    """
    skipped = sum(1 for r in reports if r is None)
    reports = [r for r in reports if r is not None]

    def col(key: str) -> np.ndarray:
        return np.asarray([r[key] for r in reports], dtype=np.float64)

    if not reports:
        return {"trials": 0, "skipped": skipped, "failures": 0}

    overhead = col("overhead")
    failures = sum(1 for r in reports if r["failed"])
    return {
        "trials": len(reports),
        "skipped": skipped,
        "failures": failures,
        "exactly_once_rate": float(np.mean(col("exactly_once"))),
        "delivered_total": int(col("delivered").sum()),
        "dropped_total": int(col("dropped").sum()),
        "retried_total": int(col("retried").sum()),
        "duplicates_total": int(col("duplicates").sum()),
        "rounds": {"mean": float(col("rounds").mean()), "max": int(col("rounds").max())},
        "overhead": {
            "mean": float(overhead.mean()),
            "max": float(overhead.max()),
            "p95": float(np.percentile(overhead, 95)),
        },
    }
