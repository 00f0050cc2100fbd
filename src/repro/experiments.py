"""Programmatic experiment registry.

The pytest benchmarks regenerate the paper's artifacts with assertions; this
module exposes the same experiments as plain functions returning JSON-ready
dicts, for scripting and for the CLI (``python -m repro experiment <name>
[--json out.json] [--jobs N]``).  Every experiment takes explicit parameters
with the benchmark defaults and is deterministic under its ``seed``.

Since the sweep-engine rewiring, every trial- or grid-looped experiment fans
its independent units out through :func:`repro.sweep.run_sweep`: per-trial
seeds are derived with :func:`repro.util.rng.derive_seed_sequence` on the
stable path ``(experiment, point, trial)`` — never ``seed + t`` arithmetic,
which collides across experiments sharing a root seed — and ``jobs > 1``
executes trials on the work-stealing process pool with output
bit-identical to ``jobs=1`` (pinned by ``tests/test_sweep.py``).  The
one exception is ``pricing_ablation``, which prices its whole grid in one
fused replay pass and runs the per-cell sweep only when asked
(``batch=False``) or when that pass raises.

The trial functions (module-level ``_*_trial`` / ``_*_point``) are the
units of parallelism: pure in their arguments, picklable, seeded only
through their ``SeedSequence`` argument.  What trials share — a
workload's relation and offline optimum, a compiled schedule — is
computed once in the calling process and passed in the grid point or
``common``; no trial looks it up in process-global state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from repro.core.params import MachineParams
from repro.sweep import SweepSpec, grid_points, run_sweep
from repro.util.rng import derive_seed_sequence

__all__ = [
    "EXPERIMENTS",
    "TABLE1_PROGRAMS",
    "run_experiment",
    "list_experiments",
    "table1_program",
    "UnknownExperimentError",
]


class UnknownExperimentError(ValueError):
    """Raised for an unregistered experiment name; ``choices`` lists the
    registered ones (rendered without ``KeyError``'s escaped-quote repr)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.choices = list_experiments()
        super().__init__(
            f"unknown experiment {name!r}; choose from: {', '.join(self.choices)}"
        )


#: the Table-1 programs, in table order (see :func:`table1_program`)
TABLE1_PROGRAMS = ("one_to_all", "broadcast", "summation")


def table1_program(name: str, machine) -> Any:
    """Run one of :data:`TABLE1_PROGRAMS` on ``machine`` and return its
    :class:`~repro.core.engine.RunResult` — the one menu behind
    :func:`table1_measured`, ``repro measure`` and ``repro ledger``.

    ``one_to_all`` sends the default payloads, ``broadcast`` the value 1,
    and ``summation`` adds one 1.0 per processor.
    """
    from repro.algorithms import broadcast, one_to_all, summation

    if name == "one_to_all":
        return one_to_all(machine)
    if name == "broadcast":
        return broadcast(machine, 1)
    if name == "summation":
        return summation(machine, [1.0] * machine.params.p)[0]
    raise ValueError(
        f"unknown Table-1 program {name!r}; choose from {TABLE1_PROGRAMS}"
    )


def table1_measured(
    p: int = 256, m: int = 16, L: float = 8.0, seed: int = 0, jobs: int = 1,
) -> Dict[str, Any]:
    """Measured model times for the Table-1 problems on all four models.

    A single deterministic parameter point — always runs serially (``jobs``
    is accepted for registry uniformity).
    """
    from repro import BSPg, BSPm, QSMg, QSMm

    local, global_ = MachineParams.matched_pair(p=p, m=m, L=L)
    machines = {
        "qsm_m": QSMm(global_),
        "qsm_g": QSMg(local),
        "bsp_m": BSPm(global_),
        "bsp_g": BSPg(local),
    }
    out: Dict[str, Any] = {"p": p, "m": m, "L": L, "g": local.g, "times": {}}
    for prob in TABLE1_PROGRAMS:
        out["times"][prob] = {}
        for name, mach in machines.items():
            mach.shared_memory.clear()
            out["times"][prob][name] = table1_program(prob, mach).time
    return out


def _unbalanced_send_trial(
    rel, optimal: float, m: int, epsilon: float, seed
) -> Dict[str, Any]:
    """One Unbalanced-Send trial: T/OPT ratio against the workload's
    offline-optimal completion time ``optimal`` plus the overload
    indicator."""
    from repro.scheduling import evaluate_schedule, unbalanced_send

    rep = evaluate_schedule(unbalanced_send(rel, m, epsilon, seed=seed), m=m)
    return {
        "ratio": rep.completion_time / optimal,
        "overloaded": int(rep.overloaded),
    }


def _sweep_errors(sweep) -> Dict[str, int]:
    """The error-policy block experiments attach when trials were skipped."""
    return {
        "skipped": sweep.skipped,
        "retried": sweep.retried,
        "retries": sweep.retries,
    }


def unbalanced_send_vs_optimal(
    p: int = 1024, m: int = 128, n: int = 60_000, epsilon: float = 0.2,
    trials: int = 25, seed: int = 0, jobs: int = 1, on_error: str = "raise",
    include_telemetry: bool = False,
) -> Dict[str, Any]:
    """Theorem 6.2: Unbalanced-Send ratio to the offline optimum across the
    benchmark's four workload shapes."""
    from repro.scheduling import (
        bsp_g_routing_time,
        evaluate_schedule,
        offline_optimal_schedule,
    )
    from repro.workloads import (
        balanced_h_relation,
        one_to_all_relation,
        uniform_random_relation,
        zipf_h_relation,
    )

    def wseed(name: str):
        return derive_seed_sequence(seed, "unbalanced_send", "workload", name)

    g = p / m
    cases = {
        "balanced": balanced_h_relation(p, max(1, n // p), seed=wseed("balanced")),
        "uniform": uniform_random_relation(p, n, seed=wseed("uniform")),
        "zipf": zipf_h_relation(p, n, alpha=1.2, seed=wseed("zipf")),
        "one_to_all": one_to_all_relation(p),
    }
    # one offline optimum per workload, handed to its trials as a parameter
    optimal = {
        name: evaluate_schedule(offline_optimal_schedule(rel, m), m=m).completion_time
        for name, rel in cases.items()
    }
    spec = SweepSpec(
        name="unbalanced_send",
        fn=_unbalanced_send_trial,
        grid={
            name: {"rel": rel, "optimal": optimal[name]}
            for name, rel in cases.items()
        },
        trials=trials,
        common={"m": m, "epsilon": epsilon},
        seed=seed,
    )
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    by_point = sweep.results_by_point()
    out: Dict[str, Any] = {"p": p, "m": m, "epsilon": epsilon, "workloads": {}}
    for name, rel in cases.items():
        # skipped trials (on_error="skip"/"retry:N") come back as None;
        # aggregate over the trials that completed
        done = [t for t in by_point[name] if t is not None]
        ratios = [t["ratio"] for t in done]
        overloads = sum(t["overloaded"] for t in done)
        out["workloads"][name] = {
            "optimal": optimal[name],
            "mean_ratio": float(np.mean(ratios)) if ratios else float("nan"),
            "max_ratio": float(np.max(ratios)) if ratios else float("nan"),
            "overload_rate": overloads / len(done) if done else float("nan"),
            "bsp_g_ratio": bsp_g_routing_time(rel, g) / optimal[name],
        }
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    if include_telemetry:
        # execution telemetry (utilization, per-worker busy time, steals)
        # for the scaling benchmarks; scientific output is unaffected
        out["sweep_telemetry"] = sweep.telemetry()
    return out


def _dynamic_stability_point(
    p: int, m: int, L: float, w: int, horizon: int, beta_g: float, seed
) -> Dict[str, Any]:
    """One beta·g cell of the Theorem 6.5/6.7 sweep: BSP(g) vs Algorithm B
    on the same adversarial trace."""
    from repro.dynamic import (
        AlgorithmBProtocol,
        BSPgIntervalProtocol,
        SingleTargetAdversary,
        run_dynamic,
    )

    local, global_ = MachineParams.matched_pair(p=p, m=m, L=L)
    g = local.g
    beta = beta_g / g
    trace_seed, proto_seed = seed.spawn(2)
    trace = SingleTargetAdversary(p, w, beta=beta).generate(horizon, seed=trace_seed)
    res_g = run_dynamic(BSPgIntervalProtocol(local, w), trace)
    res_m = run_dynamic(
        AlgorithmBProtocol(global_, w, alpha=beta, epsilon=0.25, seed=proto_seed),
        trace,
    )
    return {
        "beta_times_g": beta_g,
        "theory_slope": beta - 1 / g,
        "bsp_g": {"slope": res_g.backlog_slope(), "stable": res_g.is_stable()},
        "algorithm_b": {"slope": res_m.backlog_slope(), "stable": res_m.is_stable()},
    }


def dynamic_stability(
    p: int = 256, m: int = 16, L: float = 8.0, w: int = 128,
    horizon: int = 20_000, seed: int = 0, jobs: int = 1, on_error: str = "raise",
) -> Dict[str, Any]:
    """Theorems 6.5/6.7: the single-source flood sweep."""
    local, _ = MachineParams.matched_pair(p=p, m=m, L=L)
    betas = (0.5, 1.1, 2.0, 4.0)
    spec = SweepSpec(
        name="dynamic_stability",
        fn=_dynamic_stability_point,
        grid={f"beta_g={bg:g}": {"beta_g": bg} for bg in betas},
        common={"p": p, "m": m, "L": L, "w": w, "horizon": horizon},
        seed=seed,
    )
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    out = {"p": p, "m": m, "g": local.g, "w": w,
           "sweep": [r for r in sweep.results if r is not None]}
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    return out


def _stability_under_loss_point(
    p: int, m: int, L: float, w: int, horizon: int, beta_g: float, drop_rates, seed
) -> Dict[str, Any]:
    """One beta·g cell of the loss sweep: fault-free Algorithm B plus one
    lossy run per drop rate, all on the same trace."""
    from repro.dynamic import (
        AlgorithmBProtocol,
        LossyAlgorithmBProtocol,
        SingleTargetAdversary,
        run_dynamic,
    )

    local, global_ = MachineParams.matched_pair(p=p, m=m, L=L)
    g = local.g
    beta = beta_g / g
    trace_seed, proto_seed = seed.spawn(2)
    trace = SingleTargetAdversary(p, w, beta=beta).generate(horizon, seed=trace_seed)
    res_b = run_dynamic(AlgorithmBProtocol(global_, w, alpha=beta, seed=proto_seed), trace)
    entry: Dict[str, Any] = {
        "beta_times_g": beta_g,
        "algorithm_b": {"slope": res_b.backlog_slope(), "stable": res_b.is_stable()},
        "lossy": {},
    }
    for q in drop_rates:
        res_q = run_dynamic(
            LossyAlgorithmBProtocol(
                global_, w, alpha=beta, drop_rate=q, seed=proto_seed
            ),
            trace,
        )
        entry["lossy"][f"q={q:g}"] = {
            "slope": res_q.backlog_slope(),
            "stable": res_q.is_stable(),
            "effective_rate_inflation": 1.0 / (1.0 - q) ** 2,
        }
    return entry


def stability_under_loss(
    p: int = 64, m: int = 8, L: float = 4.0, w: int = 32,
    horizon: int = 4_000, seed: int = 0, jobs: int = 1, on_error: str = "raise",
) -> Dict[str, Any]:
    """Theorems 6.5/6.7 under message loss: how far the reliable-transport
    retries push Algorithm B's stability frontier in.

    For each drop rate ``q``, a flit must survive the data *and* the ack
    traversal, so the effective arrival rate inflates to roughly
    ``beta / (1-q)^2`` plus the ack traffic; the sweep records the backlog
    slope of :class:`~repro.dynamic.protocols.LossyAlgorithmBProtocol`
    against the fault-free Algorithm B on the same trace.
    """
    local, _ = MachineParams.matched_pair(p=p, m=m, L=L)
    betas = (0.5, 1.5, 3.0)
    spec = SweepSpec(
        name="stability_under_loss",
        fn=_stability_under_loss_point,
        grid={f"beta_g={bg:g}": {"beta_g": bg} for bg in betas},
        common={
            "p": p, "m": m, "L": L, "w": w, "horizon": horizon,
            "drop_rates": (0.05, 0.15, 0.3),
        },
        seed=seed,
    )
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    out = {"p": p, "m": m, "g": local.g, "w": w,
           "sweep": [r for r in sweep.results if r is not None]}
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    return out


def _leader_gap_point(p: int, m: int, seed) -> Dict[str, Any]:
    """One machine size of the Theorem-5.2 sweep (deterministic)."""
    from repro.concurrent_read import leader_recognition_pramm, leader_recognition_qsm_m
    from repro.theory.bounds import er_cr_pramm_separation

    leader = p // 3
    t_pram = leader_recognition_pramm(p, leader)[0].time
    t_qsm = leader_recognition_qsm_m(p, leader, m=m)[0].time
    return {
        "p": p,
        "pramm_time": t_pram,
        "qsm_m_time": t_qsm,
        "measured_gap": t_qsm / t_pram,
        "paper_separation": er_cr_pramm_separation(p, m),
    }


def leader_recognition_gap(
    m: int = 8, seed: int = 0, jobs: int = 1, on_error: str = "raise",
) -> Dict[str, Any]:
    """Theorem 5.2: the ER-vs-CR Leader Recognition gap across p."""
    spec = SweepSpec(
        name="leader_gap",
        fn=_leader_gap_point,
        grid={f"p={p}": {"p": p} for p in (128, 256, 512, 1024)},
        common={"m": m},
        seed=seed,
    )
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    out = {"m": m, "sweep": [r for r in sweep.results if r is not None]}
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    return out


def _self_scheduling_trial(rel, m: int, epsilon: float, seed) -> float:
    """One realized-cost ratio of the Section-2 transfer."""
    from repro.algorithms import self_scheduling_transfer

    return self_scheduling_transfer(rel, m, epsilon=epsilon, seed=seed)[2]


def self_scheduling_transfer_experiment(
    p: int = 1024, m: int = 128, epsilon: float = 0.15, trials: int = 15,
    seed: int = 0, jobs: int = 1, on_error: str = "raise",
) -> Dict[str, Any]:
    """Section 2: the self-scheduling metric realized within (1+eps)."""
    from repro.workloads import uniform_random_relation, zipf_h_relation

    def wseed(name: str):
        return derive_seed_sequence(seed, "self_scheduling", "workload", name)

    cases = {
        "uniform": uniform_random_relation(p, 50_000, seed=wseed("uniform")),
        "zipf": zipf_h_relation(p, 50_000, alpha=1.2, seed=wseed("zipf")),
    }
    spec = SweepSpec(
        name="self_scheduling",
        fn=_self_scheduling_trial,
        grid={name: {"rel": rel} for name, rel in cases.items()},
        trials=trials,
        common={"m": m, "epsilon": epsilon},
        seed=seed,
    )
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    by_point = sweep.results_by_point()
    out: Dict[str, Any] = {"p": p, "m": m, "epsilon": epsilon, "workloads": {}}
    for name in cases:
        ratios = [r for r in by_point[name] if r is not None]
        out["workloads"][name] = {
            "mean_ratio": float(np.mean(ratios)) if ratios else float("nan"),
            "max_ratio": float(np.max(ratios)) if ratios else float("nan"),
        }
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    return out


def sensitivity_grid(
    p_values=(256, 1024, 4096), g_values=(2.0, 8.0), L_values=(4.0, 16.0),
    y_grid: int = 4000, seed: int = 0, jobs: int = 1, on_error: str = "raise",
) -> Dict[str, Any]:
    """Theorem 4.1 sensitivity check fanned over a ``(p, g, L)`` grid: the
    numeric optimum of the constrained minimization vs the paper's closed
    form at every cell (brute-force per cell, so the grid is the
    CPU-heaviest deterministic sweep in the registry)."""
    from repro.theory.sensitivity import sensitivity_point

    spec = SweepSpec(
        name="sensitivity_grid",
        fn=sensitivity_point,
        grid=grid_points(p=list(p_values), g=list(g_values), L=list(L_values)),
        common={"y_grid": y_grid},
        seed=seed,
    )
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    cells = [c for c in sweep.results if c is not None]
    worst = min(cell["closed_over_numeric"] for cell in cells) if cells else float("nan")
    out = {"y_grid": y_grid, "cells": cells, "min_closed_over_numeric": worst}
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    return out


_ABLATION_MODELS = ("bsp_g", "bsp_m", "self_scheduling")


def _ablation_machine(compiled, model: str, g: float, m: int, L: float):
    """A fresh machine for one pricing-ablation cell (message-passing
    models only — the recorded schedule routes point-to-point flits)."""
    from repro.models.bsp_g import BSPg
    from repro.models.bsp_m import BSPm
    from repro.models.self_scheduling import SelfSchedulingBSPm

    params = MachineParams(p=compiled.p, g=g, m=m, L=L)
    if model == "bsp_g":
        return BSPg(params)
    if model == "bsp_m":
        return BSPm(params)
    if model == "self_scheduling":
        return SelfSchedulingBSPm(params)
    raise ValueError(
        f"unknown ablation model {model!r}; choose from {_ABLATION_MODELS}"
    )


def _replay_summary(res) -> Dict[str, Any]:
    """JSON-ready cell output of one replay."""
    rec = res.records[0]
    return {
        "model_time": float(res.time),
        "supersteps": len(res.records),
        "c_m": rec.stats.get("c_m"),
    }


def _pricing_ablation_trial(
    compiled, model: str, g: float, m: int, L: float, seed
) -> Dict[str, Any]:
    """One pricing-ablation cell: replay the recorded schedule under one
    ``(g, m, L)`` parameter point (deterministic — ``seed`` unused).  The
    per-cell sweep unit of ``pricing_ablation(batch=False)`` and of its
    fallback."""
    return _replay_summary(compiled.replay(_ablation_machine(compiled, model, g, m, L)))


def _pricing_ablation_batch(compiled, model: str, points) -> List[Dict[str, Any]]:
    """The fused pass: one :func:`repro.core.batched.replay_batch` call
    prices the shared structure under every grid point (looked up at call
    time, so a wrapper installed on the name sees every pass)."""
    from repro.core.batched import replay_batch

    machines = [
        _ablation_machine(compiled, model, pt["g"], pt["m"], pt["L"])
        for pt in points
    ]
    return [_replay_summary(res) for res in replay_batch(compiled, machines)]


def _batch_report(cells: int, fused: bool, fallbacks: int = 0) -> Dict[str, Any]:
    """The ``batch`` block of :func:`pricing_ablation`: the grid went to
    one fused unit of ``cells`` trials, or to ``cells`` per-cell units."""
    return {
        "enabled": fused,
        "groups": 1 if fused else 0,
        "batched_trials": cells if fused else 0,
        "dispatched_units": 1 if fused else cells,
        "max_group": cells if fused else 0,
        "amortization": float(cells) if fused else 1.0,
        "fallbacks": fallbacks,
    }


def pricing_ablation(
    p: int = 256, n: int = 40_000, schedule_m: int = 64, epsilon: float = 0.2,
    model: str = "bsp_m", g_values=(2.0,),
    m_values=(16, 24, 32, 48, 64, 96, 128, 192),
    L_values=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    seed: int = 0, jobs: int = 1, on_error: str = "raise", batch: bool = True,
) -> Dict[str, Any]:
    """Table-1-style pricing ablation of one recorded routing schedule.

    Routes a uniform h-relation once with Unbalanced-Send, compiles the
    routing superstep (:func:`repro.scheduling.execute.compile_schedule`),
    and re-prices the *identical* structure across a ``(g, m, L)`` grid —
    the paper's local-vs-global comparison at fixed communication pattern.

    With ``batch`` on (the default) the whole grid is one
    :func:`repro.core.batched.replay_batch` pass, observed or not.
    ``batch=False`` runs one sweep trial per cell under ``jobs`` and
    ``on_error`` (bit-identical cells; the e2e benchmark and
    ``benchmarks/bench_parallel_scaling.py`` compare the two), and so
    does a fused pass that raises, reporting ``fallbacks: 1`` — a bad cell
    is then skipped or named exactly as in the per-cell sweep.
    """
    from repro.scheduling.execute import compile_schedule
    from repro.scheduling.static_send import unbalanced_send
    from repro.sweep import parse_on_error, resolve_jobs
    from repro.workloads import uniform_random_relation

    # a bad policy or job count fails alike on the fused and per-cell paths
    parse_on_error(on_error)
    resolve_jobs(jobs)
    rel = uniform_random_relation(
        p, n, seed=derive_seed_sequence(seed, "pricing_ablation", "workload")
    )
    sched = unbalanced_send(
        rel, schedule_m, epsilon,
        seed=derive_seed_sequence(seed, "pricing_ablation", "route"),
    )
    compiled = compile_schedule(sched)
    points = grid_points(g=list(g_values), m=list(m_values), L=list(L_values))
    spec = SweepSpec(
        name="pricing_ablation",
        fn=_pricing_ablation_trial,
        grid=points,
        common={"compiled": compiled, "model": model},
        seed=seed,
    )
    keys = spec.point_keys
    out: Dict[str, Any] = {
        "p": p, "n": int(rel.n), "schedule_m": schedule_m, "model": model,
    }
    fused = bool(batch) and len(keys) > 1  # a one-cell grid has nothing to fuse
    fallbacks = 0
    if fused:
        try:
            cells = _pricing_ablation_batch(compiled, model, points)
        except Exception:  # noqa: BLE001 - the per-cell sweep names the bad cell
            fallbacks = 1
        else:
            out.update(
                trials=len(cells),
                cells=[{"point": k, **c} for k, c in zip(keys, cells)],
                batch=_batch_report(len(cells), fused),
            )
            return out
    sweep = run_sweep(spec, jobs=jobs, on_error=on_error)
    out.update(
        trials=sweep.trials,
        cells=[
            {"point": rec.point, **(val if val is not None else {"model_time": None})}
            for rec, val in zip(sweep.records, sweep.results)
        ],
        batch=_batch_report(len(keys), fused, fallbacks),
    )
    if sweep.skipped:
        out["sweep_errors"] = _sweep_errors(sweep)
    return out


#: name -> callable returning a JSON-ready dict
EXPERIMENTS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "table1_measured": table1_measured,
    "unbalanced_send": unbalanced_send_vs_optimal,
    "dynamic_stability": dynamic_stability,
    "stability_under_loss": stability_under_loss,
    "leader_gap": leader_recognition_gap,
    "self_scheduling": self_scheduling_transfer_experiment,
    "sensitivity_grid": sensitivity_grid,
    "pricing_ablation": pricing_ablation,
}


def list_experiments() -> List[str]:
    """Registered experiment names."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str, **kwargs) -> Dict[str, Any]:
    """Run a registered experiment; unknown names raise
    :class:`UnknownExperimentError` with the available choices."""
    if name not in EXPERIMENTS:
        raise UnknownExperimentError(name)
    return EXPERIMENTS[name](**kwargs)
