"""Flag end-to-end metrics that got worse than their ``BENCHMARK.json`` bound.

Usage::

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [--benchmark BENCHMARK.json]

Either file may be one workload's result (``run.py --workload ...``) or
the combined result of a full run (``run.py`` with no ``--workload``).
A metric is flagged when ``NEW`` is worse than ``BASE`` by more than the
metric's ``bound``, as a share of ``BASE``.  Exits 1 if anything is
flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def _by_workload(result: dict) -> Dict[str, dict]:
    if "workloads" in result:
        return {name: r["metrics"] for name, r in result["workloads"].items()}
    return {result["workload"]: result["metrics"]}


def compare(base: dict, new: dict, benchmark: dict) -> List[dict]:
    """One row per metric present in both results; ``flagged`` marks the
    ones worse than their bound."""
    rules = {m["name"]: m for m in benchmark["end_to_end"]}
    new_by = _by_workload(new)
    rows = []
    for workload, metrics in _by_workload(base).items():
        for name, rule in rules.items():
            if name not in metrics or name not in new_by.get(workload, {}):
                continue
            a = metrics[name]["value"]
            b = new_by[workload][name]["value"]
            worse = (b - a) / a if rule["better"] == "lower" else (a - b) / a
            rows.append({
                "workload": workload, "metric": name, "base": a, "new": b,
                "worse_by": worse, "bound": rule["bound"],
                "flagged": worse > rule["bound"],
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(
        json.loads(args.base.read_text()), json.loads(args.new.read_text()),
        json.loads(args.benchmark.read_text()),
    )
    for r in rows:
        mark = "WORSE" if r["flagged"] else "ok"
        print(f"{r['workload']:<16} {r['metric']:<18} {r['base']:>12.5g} -> "
              f"{r['new']:<12.5g} {r['worse_by']:+8.1%} (bound {r['bound']:.0%}) {mark}")
    return 1 if any(r["flagged"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
