"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/spread.py --runs 10 --seed 100 --out A.json
    python3 benchmarks/e2e/compare.py A.json B.json   # medians of two sets

Runs every workload ``--runs`` times through ``run.py --trace 0`` with
``BENCHMARK.json``'s ``run_seconds``, each run with the next seed, and
prints for every end-to-end metric the median of its values and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
wall-clock numbers that are per-layer metrics (``run.TIMED_UNITS``, kept
in each run's result file) get the same treatment without a bound.  The
output file keeps every run's numbers, the spreads, and under
``workloads`` the end-to-end medians in the shape of a combined
``run.py`` result, so ``compare.py`` checks one set's medians against
another's bounds.  Exits 1 if a run failed or an end-to-end spread
(``setup_s`` excepted) exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
RESULTS = E2E_DIR / ".work" / "results"


def _run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    row = {"seed": seed, "exit": proc.returncode,
           "wall_s": round(time.monotonic() - t0, 1)}
    if proc.returncode in (0, 1) and lines:
        last = json.loads(lines[-1])
        detail = json.loads(
            (RESULTS / f"{workload}-seed{seed}-trace0.json").read_text())["detail"]
        row.update(correct=last["correct"], attempted=last["attempted"],
                   failed=last["failed"],
                   metrics={k: m["value"] for k, m in last["metrics"].items()},
                   timed=detail["timed"])
    return row


def _spread(values) -> "tuple[float, float]":
    """``(median, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = bench["end_to_end"]

    runs, spreads, medians, ok = {}, {}, {}, True
    for w in (x["name"] for x in bench["workloads"]):
        rows = []
        for k in range(args.runs):
            row = _run(w, args.seed + k, bench["run_seconds"])
            rows.append(row)
            print(f"{w} seed={row['seed']} exit={row['exit']} {row['wall_s']}s "
                  + " ".join(f"{n}={v:.6g}" for n, v in row.get("metrics", {}).items()),
                  flush=True)
        runs[w] = rows
        good = [r for r in rows if r.get("correct")]
        ok = ok and len(good) == len(rows)
        if len(good) < 2:
            continue
        spreads[w], medians[w] = {}, {"metrics": {}}
        for rule in rules:
            med, spread = _spread([r["metrics"][rule["name"]] for r in good])
            spreads[w][rule["name"]] = {"median": med, "spread": spread,
                                        "bound": rule["bound"]}
            medians[w]["metrics"][rule["name"]] = {"value": med, "unit": rule["unit"]}
            if rule["name"] != "setup_s" and spread > rule["bound"]:
                ok = False
        for name in good[0]["timed"]:
            med, spread = _spread([r["timed"][name] for r in good])
            spreads[w][name] = {"median": med, "spread": spread, "bound": None}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "run_seconds": bench["run_seconds"], "first_seed": args.seed,
        "runs": runs, "spread": spreads, "workloads": medians,
    }, indent=1) + "\n")
    for w, by_metric in spreads.items():
        for name, s in by_metric.items():
            if s["bound"] is None:
                note = "  (per-layer)"
            else:
                over = name != "setup_s" and s["spread"] > s["bound"]
                note = f" bound {s['bound']:.1%}" + ("  OVER BOUND" if over else "")
            print(f"{w:<16} {name:<18} median {s['median']:>12.6g} "
                  f"spread {s['spread']:6.1%}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
