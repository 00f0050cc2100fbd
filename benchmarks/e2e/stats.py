"""One timing protocol for every workload of the end-to-end benchmark.

A run is an untimed warm-up of a fixed number of ops, then timed rounds.
A round is a fixed number of ops (whole cycles of the workload's op mix,
about 3.5 seconds on the reference box), run as a closed loop: every
client thread issues its next op only after the previous one returned.
Rounds repeat until the run's seconds are used up and at least
``MIN_ROUNDS`` ran; throughput is the median of the rounds' throughputs.
Because a round is a fixed amount of work, a faster program runs more
rounds, never a different round.  Latencies pool every timed op, and a
tail percentile is reported only when at least ``TAIL_SUPPORT`` samples
lie beyond it.

The module also owns the run's environment: which cores it may use, the
interpreter and library versions, the git revision, and the ``REPRO_*``
toggles that are cleared so that a stray setting cannot change which
execution path runs.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: samples that must lie strictly beyond a reported tail percentile
TAIL_SUPPORT = 10
#: timed rounds of a measured run, at least
MIN_ROUNDS = 5
#: toggles that select execution paths; cleared for the benchmark and its children
CLEARED_VARS = ("REPRO_FUSED", "REPRO_NUMBA", "REPRO_PERSISTENT_CACHE")
CLEARED_PREFIXES = ("REPRO_SERVE_CHAOS_",)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values: List[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    ``TAIL_SUPPORT`` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    beyond = len(ordered) - max(1, math.ceil(q / 100.0 * len(ordered)))
    if beyond < TAIL_SUPPORT:
        return None
    return percentile(ordered, q)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, IQR and range of a sample."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, med, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = med = q3 = ordered[0]
    return {
        "n": len(ordered),
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "min": ordered[0],
        "max": ordered[-1],
    }


@dataclass
class Measurement:
    """Everything one :func:`run_fixed` call, or a pool of them, observed.
    Times are ``time.monotonic()`` stamps."""

    records: List[Tuple[int, float, float]] = field(default_factory=list)  # (op, start, end)
    failed: List[int] = field(default_factory=list)  # op indices
    errors: List[str] = field(default_factory=list)  # first few messages
    next_index: int = 0

    @property
    def ops(self) -> int:
        return len(self.records)

    @property
    def latencies_s(self) -> List[float]:
        return [end - start for _i, start, end in self.records]

    @property
    def window(self) -> Tuple[float, float]:
        """From the first op's start to the last op's end."""
        return (min(r[1] for r in self.records), max(r[2] for r in self.records))

    @property
    def throughput(self) -> float:
        """Ops per second over :attr:`window`."""
        start, end = self.window
        return self.ops / (end - start)

    def indices(self) -> List[int]:
        return [r[0] for r in self.records]

    def mean_latency_s(self) -> float:
        lat = self.latencies_s
        return sum(lat) / len(lat) if lat else 0.0


def pool(parts: Sequence[Measurement]) -> Measurement:
    """One measurement holding every op of ``parts``."""
    out = Measurement(next_index=parts[-1].next_index if parts else 0)
    for part in parts:
        out.records += part.records
        out.failed += part.failed
        out.errors += part.errors[:5 - len(out.errors)]
    return out


def run_fixed(op: Callable[[int], None], count: int, threads: int = 1,
              start_index: int = 0) -> Measurement:
    """Ops ``start_index .. start_index+count-1`` as a closed loop of
    ``threads`` clients: each takes the next op index and runs it.  An op
    that raises is recorded as failed; it does not stop the loop."""
    out = Measurement()
    lock = threading.Lock()
    counter = {"next": start_index}
    stop = start_index + count

    def client():
        while True:
            with lock:
                if counter["next"] >= stop:
                    return
                i = counter["next"]
                counter["next"] += 1
            t0 = time.monotonic()
            try:
                op(i)
                err = None
            except Exception as exc:  # an op failure is a result, not a crash
                err = f"op {i}: {type(exc).__name__}: {exc}"
            t1 = time.monotonic()
            with lock:
                out.records.append((i, t0, t1))
                if err is not None:
                    out.failed.append(i)
                    if len(out.errors) < 5:
                        out.errors.append(err)

    workers = [threading.Thread(target=client) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    out.next_index = stop
    return out


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def clean_environment(environ: Dict[str, str]) -> "tuple[Dict[str, str], Dict[str, str]]":
    """``(environment without the path toggles, the toggles removed)``."""
    cleared = {
        k: v for k, v in environ.items()
        if k in CLEARED_VARS or k.startswith(CLEARED_PREFIXES)
    }
    clean = {k: v for k, v in environ.items() if k not in cleared}
    return clean, cleared


def _git(root: str, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(root: str, cleared: Dict[str, str]) -> Dict[str, object]:
    """Where and on what this run was measured."""
    import importlib.util

    import numpy

    toplevel = _git(root, "rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(root)
    sha = _git(root, "rev-parse", "HEAD") if in_repo else None
    dirty = None
    if in_repo:
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": sha,
        "git_dirty": dirty,
        "cleared_env": cleared,
    }
