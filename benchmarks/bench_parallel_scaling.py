"""Sweep-engine scaling harness: the jobs ladder against the serial run.

Runs the 100-trial Unbalanced-Send experiment (4 workloads x 25 trials,
the Theorem-6.2 reproduction) at 1/2/4/8 jobs — ``jobs`` alone places
the sweep, so ``jobs=1`` is the ``serial`` reference and every other
point runs on ``pool-steal`` — and records, per jobs point, filed under
the backend its telemetry names:

* wall-clock elapsed and speedup over the one serial reference run,
* worker count, worker utilization, and steal count (sweep telemetry),
* whether the output dict is **bit-identical** to the serial run (it
  must be — trials are pure and carry derived per-trial seeds, so the
  job count changes only wall-clock, never results),
* whether the speedup floor was *asserted* for that point — a floor is
  only meaningful where the hardware can express it, so points with
  ``jobs > cores`` record ``speedup_asserted: false`` and are exempt.

``cores`` is recorded prominently at the top level: a speedup table
without the core count that produced it is unreadable (1.0x at 4 jobs is
a bug on a 16-core box and expected on a 1-core one).

Run standalone to (re)generate the scaling baseline::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py

which writes ``BENCH_sweep.json`` to the repository root, or under
pytest-benchmark like every other file in this directory.  Environment
knobs (the CI smoke uses all of them):

``BENCH_SWEEP_JOBS``
    comma list of job counts, default ``1,2,4,8``;
``BENCH_SWEEP_TRIALS``
    per-workload trials, default 25;
``BENCH_SWEEP_FLOOR``
    speedup floor asserted at 4 jobs, default 2.5;
``BENCH_SWEEP_BATCHED_FLOOR``
    sweep-level speedup floor of the batched block, default 3.0.

Identity is asserted everywhere; the floor only where ``cores >= jobs``.

The run also times the **batched** block: ``pricing_ablation`` (one
compiled routing program re-priced over a 64-cell ``(m, L)`` grid) with
``batch=False`` (one sweep trial per cell) vs ``batch=True`` (one fused
``replay_batch`` pass) at ``jobs=1``.  Cell outputs must be identical
(always asserted); the batched floor is gated only when the experiment
reports that its fused pass ran.
"""

import json
import os
import time

from repro.experiments import unbalanced_send_vs_optimal
from repro.sweep import resolve_jobs

from _common import emit

#: the >= 100-trial experiment: 4 workloads x TRIALS trials
P, M, N, EPS = 1024, 128, 60_000, 0.2
TRIALS = int(os.environ.get("BENCH_SWEEP_TRIALS", "25"))
SEED = 0
JOBS = [int(j) for j in os.environ.get("BENCH_SWEEP_JOBS", "1,2,4,8").split(",")]

#: acceptance floor at 4 jobs (asserted only where >= 4 cores exist)
SPEEDUP_FLOOR_4 = float(os.environ.get("BENCH_SWEEP_FLOOR", "2.5"))

#: sweep-level floor of batch=True over batch=False on pricing_ablation
#: (asserted only when the fused pass ran; identity always is)
BATCHED_SPEEDUP_FLOOR = float(os.environ.get("BENCH_SWEEP_BATCHED_FLOOR", "3.0"))


def _run(jobs: int):
    t0 = time.perf_counter()
    out = unbalanced_send_vs_optimal(
        p=P, m=M, n=N, epsilon=EPS, trials=TRIALS, seed=SEED, jobs=jobs,
        include_telemetry=True,
    )
    elapsed = time.perf_counter() - t0
    telemetry = out.pop("sweep_telemetry")  # timing data, excluded from identity
    return out, telemetry, elapsed


def _run_batched():
    """pricing_ablation with batching off vs on: the whole-experiment view
    of batched replay (routing setup and per-cell dispatch included,
    unlike the engine bench's pure replay loop)."""
    from repro.experiments import pricing_ablation

    t0 = time.perf_counter()
    off = pricing_ablation(seed=SEED, jobs=1, batch=False)
    dt_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    on = pricing_ablation(seed=SEED, jobs=1, batch=True)
    dt_on = time.perf_counter() - t0
    stats = on.pop("batch")
    off.pop("batch")
    return {
        "trials": len(on["cells"]),
        "elapsed_off_s": dt_off,
        "elapsed_on_s": dt_on,
        "batched_speedup": dt_off / dt_on,
        "identical": on == off,
        "engaged": bool(stats.get("enabled")),
        "amortization": stats.get("amortization"),
        "groups": stats.get("groups"),
        "batched_trials": stats.get("batched_trials"),
    }


def run_all():
    cores = resolve_jobs(0)
    total_trials = 4 * TRIALS
    data = {
        "experiment": "unbalanced_send",
        "params": {"p": P, "m": M, "n": N, "epsilon": EPS,
                   "trials_per_workload": TRIALS, "total_trials": total_trials,
                   "seed": SEED},
        "cores": cores,
        "speedup_floor_4": SPEEDUP_FLOOR_4,
        "backends": {},
    }
    serial_out, serial_tel, serial_s = _run(1)
    for jobs in [1] + [j for j in JOBS if j != 1]:
        if jobs == 1:
            # reuse the reference run rather than timing serial twice
            out, telemetry, elapsed = serial_out, serial_tel, serial_s
        else:
            out, telemetry, elapsed = _run(jobs)
        be = telemetry["backend"]
        block = data["backends"].setdefault(be["name"], {"jobs": {}})
        block["jobs"][str(jobs)] = {
            "elapsed_s": elapsed,
            "speedup_vs_serial": serial_s / elapsed,
            "trials_per_s": total_trials / elapsed,
            "identical_to_serial": out == serial_out,
            "workers": be["pool_workers"],
            "utilization": telemetry["utilization"],
            "steals": be["steals"],
            "worker_deaths": be["worker_deaths"],
            "speedup_asserted": bool(jobs == 4 and cores >= jobs),
        }
    data["serial_elapsed_s"] = serial_s
    data["batched"] = _run_batched()
    return data


def _report(data):
    rows = []
    for backend, block in data["backends"].items():
        for jobs, rec in block["jobs"].items():
            rows.append([
                backend, jobs, round(rec["elapsed_s"], 3),
                round(rec["speedup_vs_serial"], 2),
                rec["workers"], round(rec["utilization"], 2),
                rec["steals"], rec["identical_to_serial"],
                rec["speedup_asserted"],
            ])
    emit(
        f"sweep scaling: unbalanced_send, {data['params']['total_trials']} trials "
        f"({data['cores']} usable cores)",
        ["backend", "jobs", "elapsed s", "speedup", "workers", "util",
         "steals", "identical", "floor asserted"],
        rows,
    )
    b = data.get("batched")
    if b:
        print(
            f"batched sweep (pricing_ablation, {b['trials']} trials): "
            f"{b['batched_speedup']:.2f}x over per-trial dispatch "
            f"(amortization {b['amortization']:.1f}, identical={b['identical']}, "
            f"engaged={b['engaged']})"
        )


def _check(data):
    cores = data["cores"]
    for backend, block in data["backends"].items():
        for jobs, rec in block["jobs"].items():
            # The invariant that makes any job count safe to pick:
            # results never depend on the placement.
            assert rec["identical_to_serial"], (
                f"backend={backend} jobs={jobs} output diverged from the "
                "serial run — a trial is impure or seed derivation is "
                "order-dependent"
            )
            # The speedup claim is only measurable where parallel hardware
            # exists: never assert a floor with fewer cores than jobs.
            if not rec["speedup_asserted"]:
                continue
            speedup = rec["speedup_vs_serial"]
            assert speedup >= SPEEDUP_FLOOR_4, (
                f"backend={backend} 4-job speedup {speedup:.2f}x below the "
                f"{SPEEDUP_FLOOR_4}x floor on a {cores}-core machine"
            )
    b = data.get("batched")
    if b:
        assert b["identical"], (
            "batched sweep output diverged from per-trial dispatch — "
            "the fused replay_batch pass broke the bit-identity contract"
        )
        if b["engaged"]:
            assert b["batched_speedup"] >= BATCHED_SPEEDUP_FLOOR, (
                f"batched sweep speedup {b['batched_speedup']:.2f}x below "
                f"the {BATCHED_SPEEDUP_FLOOR}x floor"
            )


def write_baseline(path="BENCH_sweep.json"):
    data = run_all()
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return data


def test_parallel_scaling(benchmark):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    _report(data)
    benchmark.extra_info.update(data)
    _check(data)


if __name__ == "__main__":
    out_path = os.environ.get("BENCH_SWEEP_JSON", "BENCH_sweep.json")
    result = write_baseline(out_path)
    _report(result)
    _check(result)
    best = max(
        rec["speedup_vs_serial"]
        for block in result["backends"].values()
        for rec in block["jobs"].values()
    )
    print(f"\nwrote {out_path}  (best speedup: {best:.2f}x on {result['cores']} cores)")
