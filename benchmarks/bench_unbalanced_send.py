"""E6.1 — Theorem 6.2: Unbalanced-Send completes within (1+eps) of the
offline optimum w.h.p., and the tail P[T > k sigma] decays.

Workloads: balanced, uniform-random, zipf-skewed, one-to-all (maximal
skew).  Baselines: exact offline optimum, the deterministic grouped
(g-model-emulation) schedule, the naive schedule, and the BSP(g) charge of
Proposition 6.1.

Trial fan-out goes through ``repro.sweep``: per-trial seeds are derived
via SeedSequence spawning (``derive_seed_sequence``, not ``seed + t``),
each workload's offline optimum is computed once, and ``BENCH_JOBS``
(default 1) runs the trials on a process pool — results are bit-identical
at any job count.
"""

import os

import numpy as np

from repro.scheduling import (
    bsp_g_routing_time,
    evaluate_schedule,
    grouped_schedule,
    naive_schedule,
    offline_optimal_schedule,
    unbalanced_send,
)
from repro.sweep import SweepSpec, run_sweep
from repro.theory.chernoff import window_overload_probability
from repro.util.rng import derive_seed_sequence
from repro.workloads import (
    balanced_h_relation,
    one_to_all_relation,
    uniform_random_relation,
    zipf_h_relation,
)

from _common import emit

P, M, EPS = 1024, 128, 0.2
G = P / M
TRIALS = 25
JOBS = int(os.environ.get("BENCH_JOBS", "1"))


def workloads():
    def wseed(name):
        return derive_seed_sequence(0, "bench_unbalanced_send", "workload", name)

    return {
        "balanced": balanced_h_relation(P, 64, seed=wseed("balanced")),
        "uniform": uniform_random_relation(P, 60_000, seed=wseed("uniform")),
        "zipf": zipf_h_relation(P, 60_000, alpha=1.2, seed=wseed("zipf")),
        "one-to-all": one_to_all_relation(P),
    }


def _trial(rel, seed):
    """One Unbalanced-Send draw (module-level for pool dispatch)."""
    rep = evaluate_schedule(unbalanced_send(rel, M, EPS, seed=seed), m=M)
    return rep.completion_time, int(rep.overloaded)


def run_all():
    cases = workloads()
    spec = SweepSpec(
        name="bench_unbalanced_send",
        fn=_trial,
        grid={name: {"rel": rel} for name, rel in cases.items()},
        trials=TRIALS,
        seed=0,
    )
    by_point = run_sweep(spec, jobs=JOBS).results_by_point()
    out = {}
    for name, rel in cases.items():
        opt = evaluate_schedule(offline_optimal_schedule(rel, M), m=M)
        times = [t for t, _ in by_point[name]]
        overloads = sum(o for _, o in by_point[name])
        grp = evaluate_schedule(grouped_schedule(rel, M), m=M)
        nai = evaluate_schedule(naive_schedule(rel), m=M)
        out[name] = {
            "opt": opt.completion_time,
            "mean_ratio": float(np.mean(times)) / opt.completion_time,
            "max_ratio": float(np.max(times)) / opt.completion_time,
            "overload_rate": overloads / TRIALS,
            "grouped_ratio": grp.completion_time / opt.completion_time,
            "naive_ratio": nai.completion_time / opt.completion_time,
            "bsp_g_ratio": bsp_g_routing_time(rel, G) / opt.completion_time,
        }
    return out


def test_unbalanced_send_vs_optimal(benchmark):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        f"E6.1 Unbalanced-Send vs offline optimum (p={P}, m={M}, eps={EPS}, {TRIALS} seeds)",
        ["workload", "OPT", "mean T/OPT", "max T/OPT", "overload rate",
         "grouped/OPT", "naive/OPT", "BSP(g)/OPT"],
        [
            [k, v["opt"], v["mean_ratio"], v["max_ratio"], v["overload_rate"],
             v["grouped_ratio"], v["naive_ratio"], v["bsp_g_ratio"]]
            for k, v in data.items()
        ],
    )
    benchmark.extra_info.update(data)
    for name, v in data.items():
        # Theorem 6.2 shape: within (1+eps) of optimal on every workload
        assert v["max_ratio"] <= 1 + EPS + 0.05, name
        assert v["overload_rate"] <= max(
            0.15, window_overload_probability(60_000, M, EPS)
        )
    # skew makes the locally-limited baseline Θ(g) worse
    assert data["one-to-all"]["bsp_g_ratio"] >= 0.9 * G
    assert data["zipf"]["bsp_g_ratio"] >= 3.0
    # balanced workloads show no such gap
    assert data["balanced"]["bsp_g_ratio"] <= 3.0
    # the naive schedule pays the exponential penalty under load
    assert data["uniform"]["naive_ratio"] > 10.0


def _tail_trial(rel, m_small, eps, seed):
    """One completion time at small m (module-level for pool dispatch)."""
    rep = evaluate_schedule(unbalanced_send(rel, m_small, eps, seed=seed), m=m_small)
    return rep.completion_time


def test_tail_probability_decay(benchmark):
    """P[T > k·sigma] decays with k: measured empirically at small m where
    overloads actually happen."""

    def measure():
        rel = uniform_random_relation(
            256, 20_000, seed=derive_seed_sequence(0, "bench_unbalanced_send", "tail")
        )
        m_small, eps = 24, 0.1
        opt = max(rel.n / m_small, rel.x_bar, rel.y_bar)
        sigma = (1 + eps) * opt
        spec = SweepSpec(
            name="bench_unbalanced_send_tail",
            fn=_tail_trial,
            grid={"tail": {"rel": rel}},
            trials=120,
            common={"m_small": m_small, "eps": eps},
            seed=0,
        )
        times = np.asarray(run_sweep(spec, jobs=JOBS).results)
        return {k: float(np.mean(times > k * sigma)) for k in (1.0, 1.5, 2.0, 4.0)}

    tail = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        "E6.1b tail of the completion time (m=24, eps=0.1, 120 seeds)",
        ["k", "P[T > k·sigma] measured"],
        [[k, v] for k, v in tail.items()],
    )
    ks = sorted(tail)
    vals = [tail[k] for k in ks]
    assert vals == sorted(vals, reverse=True)  # monotone decay
    assert tail[4.0] <= tail[1.0]
