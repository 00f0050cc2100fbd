"""End-to-end benchmark of the bandwidth-model service and library.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload serve-cold --seed 0 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py --seed 0            # all four, one subprocess each

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` gives the per-layer metrics: the same protocol untraced
(wall-clock numbers, server counters, sweep result blocks), then a
shorter phase with benchmark-owned spans around the layers' public
callables (see ``spans.py``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with the environment block, goes to
``benchmarks/e2e/.work/results/``.  Exit codes: 0 every answer right,
1 an answer wrong (the result is still printed), 2 a usage error or the
package under ``src/`` missing, 3 the harness itself failed (no result).
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
SRC = ROOT / "src"
WORK = E2E_DIR / ".work"
sys.path.insert(0, str(E2E_DIR))

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9

#: gated against their ``BENCHMARK.json`` bounds
END_TO_END_UNITS = {
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: wall-clock numbers of the timed rounds: per-layer, because on the reference
#: box they swing more from run to run than a 10% bound allows (README.md)
TIMED_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
}


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in reporting order."""
    units = dict(TIMED_UNITS)
    units.update({
        "serve.admission.wait_ms": "ms",
        "serve.admission.requests_per_round": "count",
        "serve.executor.service_ms": "ms",
        "serve.executor.coalesced_share": "ratio",
        "serve.executor.retries": "count",
        "serve.transport_ms": "ms",
        "serve.cache.hit_ratio": "ratio",
        "serve.daemon.cpu_ms_per_op": "ms",
        "serve.client.cpu_ms_per_op": "ms",
        "core.batched.us_per_trial": "us",
        "sweep.batch.amortization": "ratio",
        "sweep.batch.fallbacks": "count",
        "core.engine.supersteps_per_op": "count",
        "core.engine.us_per_superstep": "us",
        "bench.trace_overhead_ratio": "ratio",
    })
    for name in spans.LAYERS:
        units[f"{name}_us"] = "us"
        units[f"{name}.calls"] = "count"
    return units


def bench_environment() -> "tuple[Dict[str, str], Dict[str, str]]":
    """``(environment for the benchmark and its children, toggles cleared)``:
    ``src/`` on the path, path toggles removed, caches inside the checkout."""
    env, cleared = stats.clean_environment(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(WORK / "cache")
    return env, cleared


def _golden() -> Dict[str, str]:
    return json.loads((E2E_DIR / "golden.json").read_text())


def _phase(wl, seconds: float, min_rounds: int,
           setups: Optional[List[float]] = None) -> Dict[str, Any]:
    """Warm-up, then timed rounds of ``wl.round_ops`` ops until ``seconds``
    of rounds ran and at least ``min_rounds`` did, on an open workload.
    With ``setups``, one set-up is timed after each round until there are
    ``SETUP_SPAWNS``, so that they sample the whole run, not one moment."""
    warms = [stats.run_fixed(wl.op, wl.warmup, threads=wl.threads)]
    next_index = warms[0].next_index
    rounds, cpu, counts, peak, timed = [], [0.0, 0.0], {}, 0.0, 0.0
    while len(rounds) < min_rounds or timed < seconds:
        if rounds and wl.fresh_per_round:
            wl.reopen()
            warms.append(stats.run_fixed(wl.op, wl.warmup, threads=wl.threads,
                                         start_index=next_index))
            next_index = warms[-1].next_index
        cpu0, before = wl.cpu_s(), wl.counters()
        meas = stats.run_fixed(wl.op, wl.round_ops, threads=wl.threads,
                               start_index=next_index)
        cpu1, after = wl.cpu_s(), wl.counters()
        next_index = meas.next_index
        rounds.append(meas)
        timed += meas.window[1] - meas.window[0]
        cpu = [cpu[k] + cpu1[k] - cpu0[k] for k in (0, 1)]
        for name, value in after.items():
            counts[name] = counts.get(name, 0) + value - before.get(name, 0)
        peak = max(peak, wl.peak_rss_mb())
        if setups is not None and len(setups) < SETUP_SPAWNS:
            setups.append(wl.setup_time())
    pooled, warm = stats.pool(rounds), stats.pool(warms)
    return {
        "warm_ops": warm.ops, "meas": pooled, "rounds": rounds,
        "failed": set(pooled.failed) | set(warm.failed) | set(wl.verify()),
        "throughput": statistics.median(r.throughput for r in rounds),
        "digest": wl.digest(range(wl.warmup)),
        "errors": warm.errors + pooled.errors,
        "cpu": cpu, "peak_rss_mb": peak,
        "layers": wl.layer_metrics(counts, pooled),
    }


def _timed(ph) -> Dict[str, float]:
    """The :data:`TIMED_UNITS` numbers of a phase of at least ``MIN_ROUNDS``."""
    meas = ph["meas"]
    lat = meas.latencies_s
    p99 = stats.tail_percentile(lat, 99)
    if p99 is None:
        raise RuntimeError(f"{len(lat)} latency samples cannot support a p99")
    return {
        "throughput_ops_s": ph["throughput"],
        "latency_p50_ms": stats.percentile(sorted(lat), 50) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "cpu_ms_per_op": sum(ph["cpu"]) / meas.ops * 1e3,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 env: Optional[Dict[str, str]] = None,
                 workdir: Optional[Path] = None) -> Dict[str, Any]:
    """Run one workload; returns the full result (``metrics`` holds the
    end-to-end metrics, or the per-layer ones when ``trace``)."""
    env = dict(os.environ) if env is None else env
    workdir = workdir or WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir, env)
    detail: Dict[str, Any] = {}
    try:
        if trace:
            values, correct, attempted, failed = _traced_run(wl, seconds, detail)
        else:
            values, correct, attempted, failed = _measured_run(wl, seconds, detail)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    golden = _golden().get(name) if seed == workloads.DEFAULT_SEED else None
    if golden is not None and detail["digest"] != golden:
        detail["golden_mismatch"] = {"expected": golden, "got": detail["digest"]}
        correct = False
    units = per_layer_units() if trace else END_TO_END_UNITS
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": correct and not failed, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def _measured_run(wl, seconds, detail):
    setups = [wl.setup_time() for _ in range(SETUP_SPAWNS - stats.MIN_ROUNDS)]
    wl.open()
    ph = _phase(wl, seconds, stats.MIN_ROUNDS, setups)
    wl.close()
    failed = len(ph["failed"])
    attempted = ph["warm_ops"] + ph["meas"].ops
    values = {
        "success_rate": 1.0 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": ph["peak_rss_mb"],
    }
    detail.update(
        digest=ph["digest"],
        timed=_timed(ph),
        round_throughputs=[r.throughput for r in ph["rounds"]],
        latency_ms=stats.summarize([x * 1e3 for x in ph["meas"].latencies_s]),
        setup_s=stats.summarize(setups),
        cpu_s={"client": ph["cpu"][0], "daemon": ph["cpu"][1]},
        errors=ph["errors"],
    )
    return values, True, attempted, failed


def _traced_run(wl, seconds, detail):
    """The measured protocol untraced (without set-ups), then a shorter
    traced phase; each a fresh open of the workload."""
    wl.open()
    plain = _phase(wl, seconds / 2, stats.MIN_ROUNDS)
    wl.close()
    wl.open(traced=True)
    traced = _phase(wl, seconds / 2, 1)
    totals, absent_targets = wl.span_totals([r.window for r in traced["rounds"]])
    wl.close()

    ops = traced["meas"].ops
    absent = spans.absent_layers(absent_targets)
    values = dict.fromkeys(per_layer_units(), 0.0)
    values.update(_timed(plain))
    values.update(spans.layer_metrics(totals, ops, absent))
    values.update(plain["layers"])
    pmeas = plain["meas"]
    if wl.threads > 1:  # served: split the CPU between client and daemon
        values["serve.client.cpu_ms_per_op"] = plain["cpu"][0] / pmeas.ops * 1e3
        values["serve.daemon.cpu_ms_per_op"] = plain["cpu"][1] / pmeas.ops * 1e3
    replay = totals.get("core.batched.replay_batch")
    if replay and replay["units"]:
        values["core.batched.us_per_trial"] = replay["self_s"] / replay["units"] * 1e6
    steps = wl.supersteps(traced["meas"].indices())
    if steps:
        run_s = sum(v["self_s"] for k, v in totals.items()
                    if k.startswith("core.engine.run."))
        values["core.engine.us_per_superstep"] = run_s / steps * 1e6
    values["bench.trace_overhead_ratio"] = traced["throughput"] / plain["throughput"]
    correct = traced["digest"] == plain["digest"]
    failed = len(plain["failed"]) + len(traced["failed"])
    attempted = sum(ph["warm_ops"] + ph["meas"].ops for ph in (plain, traced))
    detail.update(
        digest=plain["digest"], traced_digest=traced["digest"],
        absent_layers=absent, absent_targets=absent_targets,
        errors=plain["errors"] + traced["errors"],
    )
    return values, correct, attempted, failed


def _print_table(result: Dict[str, Any]) -> None:
    print(f"{result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["detail"].get("timed", {}).items():
        print(f"  {name + ' (per-layer)':<42} {value:>14.6g} {TIMED_UNITS[name]}")


def _run_all(args, env) -> int:
    """Every workload in a fresh subprocess; one combined result file."""
    combined, ok = {}, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        combined[name] = json.loads(lines[-1])
        ok = ok and combined[name]["correct"]
    out = WORK / "results" / f"all-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workloads": combined}, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; all four (one subprocess each) when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2

    env, cleared = bench_environment()
    os.environ.clear()
    os.environ.update(env)  # before repro is imported: the toggles are read at import
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return _run_all(args, env)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              env=env)
    except Exception:  # a harness failure is not a wrong answer: no result, exit 3
        traceback.print_exc()
        print(f"error: {args.workload} did not complete", file=sys.stderr)
        return 3
    result["environment"] = stats.environment(str(ROOT), cleared)
    _print_table(result)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
