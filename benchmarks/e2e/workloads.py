"""The four workloads of the end-to-end benchmark.

Each workload turns the run seed into a deterministic sequence of ops
(op ``i`` depends only on the seed and ``i``, never on timing or thread
order), runs them through the system's public entry points, and checks
every answer it can afford to check while timing, plus the rest after the
timed rounds.  The model times of the warm-up ops form the workload's
digest, which must equal the golden digest for the default seed and must
not change when the run is traced.

==================  ====================================================
``serve-cold``      ``repro serve`` daemon, every request a fresh seed:
                    relation, Unbalanced-Send, routing, evaluation and a
                    store write per request.
``serve-warm``      the same daemon answering 256 pre-filled fingerprints:
                    HTTP, protocol, admission and store reads only.
``sweep-ablation``  in-process ``pricing_ablation`` over a 256-cell grid:
                    batched replay plus sweep grouping and dispatch.
``table1-programs`` in-process Table-1 programs on the four models: the
                    live superstep loop.
==================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import spans
from stats import Measurement, run_fixed

E2E_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0


class WrongAnswer(Exception):
    """An op returned an answer that disagrees with its reference."""


def digest(values: List[float]) -> str:
    """Order-sensitive digest of model times (``repr`` keeps every bit)."""
    return hashlib.blake2b(
        ",".join(repr(float(v)) for v in values).encode(), digest_size=16
    ).hexdigest()


class Workload:
    """Interface the runner drives; see :mod:`run`."""

    name = ""
    threads = 1  # closed-loop clients in the measuring process
    warmup = 1  # untimed ops before the timed rounds; their outputs are digested
    round_ops = 1  # ops per timed round: whole cycles of the op mix, about 3.5 s
    fresh_per_round = False  # reopen, and warm up again, before every round but the first

    def __init__(self, seed: int, workdir: Path, env: Dict[str, str]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.outputs: Dict[int, List[float]] = {}  # warm-up op index -> model times

    def setup_time(self) -> float:
        """Seconds from spawning a fresh process to ready for ops."""
        raise NotImplementedError

    def open(self, traced: bool = False) -> None:
        raise NotImplementedError

    def reopen(self) -> None:
        """Fresh state before a round when :attr:`fresh_per_round`."""
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def verify(self) -> List[int]:
        """Deferred checks after the timed rounds; returns failing op indices."""
        return []

    def cpu_s(self) -> Tuple[float, float]:
        """``(measuring process, daemon)`` CPU seconds so far."""
        return time.process_time(), 0.0

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters, differenced around every timed round."""
        return {}

    def layer_metrics(self, counts: Dict[str, float], meas: Measurement
                      ) -> Dict[str, float]:
        """Per-layer numbers of an untraced phase from its rounds' summed
        counter deltas and pooled ops."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def span_totals(self, windows) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
        """``(per-layer totals of the spans inside windows, absent targets)``
        of the traced phase; call after its last round, before close."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def record(self, i: int, model_times: List[float]) -> None:
        """Keep the warm-up ops' model times for the digest (only those, so
        that memory does not grow with the number of ops)."""
        if i < self.warmup:
            self.outputs[i] = model_times

    def digest(self, indices) -> str:
        """A failed op has no output, so it changes the digest."""
        return digest([v for i in indices for v in self.outputs.get(i, [])])

    def supersteps(self, indices) -> int:
        return 0


# ----------------------------------------------------------------------
# library workloads: in-process, one thread
# ----------------------------------------------------------------------


class _InProcess(Workload):
    """Shared plumbing: set-up is timed in a spawned child; tracing
    installs the span wrappers in this process."""

    def __init__(self, seed, workdir, env) -> None:
        super().__init__(seed, workdir, env)
        self._uninstall = None
        self._recorder: Optional[spans.SpanRecorder] = None
        self._absent: List[str] = []

    def setup_time(self) -> float:
        code = (
            "import workloads\n"
            f"workloads.WORKLOADS[{self.name!r}]({self.seed}, None, {{}}).open()\n"
            "print('ready', flush=True)\n"
        )
        env = dict(self.env)
        env["PYTHONPATH"] = os.pathsep.join([str(E2E_DIR), env["PYTHONPATH"]])
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        finally:
            child.stdout.close()
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"{self.name} set-up child failed ({child.returncode})")
        return elapsed

    def open(self, traced: bool = False) -> None:
        self.build_inputs()
        if traced:
            self._recorder = spans.SpanRecorder()
            self._uninstall, self._absent = spans.install(self._recorder)

    def build_inputs(self) -> None:
        raise NotImplementedError

    def span_totals(self, windows):
        return self._recorder.aggregate(windows), list(self._absent)

    def close(self) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None


#: 4 x 8 x 8 = 256 cells, one batched replay group per call
ABLATION_GRID = {
    "g_values": (1.0, 2.0, 4.0, 8.0),
    "m_values": (4, 8, 12, 16, 24, 32, 48, 64),
    "L_values": (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
}
ABLATION_MODELS = ("bsp_m", "bsp_g", "self_scheduling")
ABLATION_CHECK_EVERY = 50  # re-run with batch=False and compare


def _cells_digest(cells) -> str:
    return hashlib.blake2b(json.dumps(cells, sort_keys=True).encode()).hexdigest()


class SweepAblation(_InProcess):
    name = "sweep-ablation"
    warmup = 2 * len(ABLATION_MODELS)
    round_ops = 77 * len(ABLATION_MODELS)

    def build_inputs(self) -> None:
        import repro.experiments
        import repro.scheduling  # noqa: F401  (imported by every call)

        self.experiments = repro.experiments
        self.cells = (
            len(ABLATION_GRID["g_values"]) * len(ABLATION_GRID["m_values"])
            * len(ABLATION_GRID["L_values"])
        )
        self.rechecks: List[Tuple[int, Dict[str, Any], str]] = []
        self.amortization: Dict[int, float] = {}
        self.fallbacks: Dict[int, int] = {}

    def call_kwargs(self, i: int) -> Dict[str, Any]:
        return {
            "p": 64, "n": 20_000, "schedule_m": 32,
            "model": ABLATION_MODELS[i % len(ABLATION_MODELS)],
            "seed": self.seed * 1_000_000 + i, "jobs": 1, **ABLATION_GRID,
        }

    def op(self, i: int) -> None:
        kwargs = self.call_kwargs(i)
        out = self.experiments.run_experiment("pricing_ablation", **kwargs)
        cells = out["cells"]
        times = [c["model_time"] for c in cells]
        if out["trials"] != self.cells or len(cells) != self.cells:
            raise WrongAnswer(f"{len(cells)} cells, expected {self.cells}")
        if not all(isinstance(t, float) and math.isfinite(t) and t > 0 for t in times):
            raise WrongAnswer("a cell has no finite positive model time")
        self.record(i, times)
        self.amortization[i] = out["batch"]["amortization"]
        self.fallbacks[i] = out["batch"]["fallbacks"]
        if i % ABLATION_CHECK_EVERY == 0:
            self.rechecks.append((i, kwargs, _cells_digest(cells)))

    def verify(self) -> List[int]:
        bad = []
        for i, kwargs, cells in self.rechecks:
            ref = self.experiments.run_experiment(
                "pricing_ablation", batch=False, **kwargs
            )
            if _cells_digest(ref["cells"]) != cells:
                bad.append(i)
        self.rechecks = []
        return bad

    def layer_metrics(self, counts, meas):
        idx = [i for i in meas.indices() if i in self.amortization]
        return {
            "sweep.batch.amortization": (
                sum(self.amortization[i] for i in idx) / len(idx) if idx else 0.0
            ),
            "sweep.batch.fallbacks": float(sum(self.fallbacks[i] for i in idx)),
        }


#: Table-1 cells: (algorithm, machine class, parameter set)
TABLE1_CELLS: Tuple[Tuple[str, str, str], ...] = tuple(
    (alg, cls, "local" if cls.endswith("g") else "global")
    for cls in ("QSMm", "QSMg", "BSPm", "BSPg")
    for alg in ("one_to_all", "broadcast", "summation", "columnsort")
) + (
    ("sample_sort", "BSPm", "sort64"),
    ("list_ranking_contraction", "BSPm", "global"),
)


class Table1Programs(_InProcess):
    name = "table1-programs"
    warmup = len(TABLE1_CELLS)
    round_ops = 14 * len(TABLE1_CELLS)

    def build_inputs(self) -> None:
        import repro
        import repro.algorithms

        self.repro = repro
        self.algorithms = repro.algorithms
        local, global_ = repro.MachineParams.matched_pair(p=256, m=16, L=8)
        self.params = {
            "local": local, "global": global_,
            "sort64": repro.MachineParams(p=64, m=16, L=8),
        }
        rng = np.random.default_rng([self.seed, 1])
        self.payloads = rng.integers(0, 1 << 40, size=256).tolist()
        self.value = float(rng.random())
        self.addends = rng.integers(0, 1 << 20, size=256).tolist()
        self.keys = rng.random(4096)
        self.sort_keys = rng.random(30_000)
        self.list_seed = int(rng.integers(1 << 62))
        self.succ = repro.algorithms.random_list(4096, seed=self.list_seed)
        # independent references
        self.keys_sorted = np.sort(self.keys)
        self.sort_keys_sorted = np.sort(self.sort_keys)
        self.ranks = repro.algorithms.sequential_ranks(self.succ)
        self.total = sum(self.addends)
        self.steps: Dict[int, int] = {}

    def op(self, i: int) -> None:
        alg, cls, params = TABLE1_CELLS[i % len(TABLE1_CELLS)]
        machine = getattr(self.repro, cls)(self.params[params])
        fn = getattr(self.algorithms, alg)  # looked up per call: see spans.py
        if alg == "one_to_all":
            res = fn(machine, payloads=self.payloads)
            ok = list(res.results) == self.payloads
        elif alg == "broadcast":
            res = fn(machine, self.value)
            ok = all(v == self.value for v in res.results)
        elif alg == "summation":
            res, total = fn(machine, self.addends)
            ok = total == self.total
        elif alg == "columnsort":
            res, out = fn(machine, self.keys)
            ok = np.array_equal(out, self.keys_sorted)
        elif alg == "sample_sort":
            res, out = fn(machine, self.sort_keys, seed=self.list_seed)
            ok = np.array_equal(out, self.sort_keys_sorted)
        else:
            res, ranks = fn(machine, self.succ, seed=self.list_seed)
            ok = np.array_equal(ranks, self.ranks)
        if not ok:
            raise WrongAnswer(f"{alg} on {cls} disagrees with its reference")
        self.record(i, [res.time])
        self.steps[i] = res.supersteps

    def supersteps(self, indices) -> int:
        return sum(self.steps.get(i, 0) for i in indices)

    def layer_metrics(self, counts, meas):
        steps = self.supersteps(meas.indices())
        return {"core.engine.supersteps_per_op": steps / meas.ops if meas.ops else 0.0}


# ----------------------------------------------------------------------
# served workloads: a daemon child, two closed-loop client threads
# ----------------------------------------------------------------------

#: ten requests in the exact shape mix: uniform 40%, zipf 30%, balanced 20%,
#: one_to_all 10%.  Request ``i`` takes its shape, m and L from ``i`` alone, so
#: every whole cycle of ``SCENARIO_CYCLE`` requests is the same mix and only
#: the relations' random content depends on the seed.
SCENARIO_SHAPES = ("uniform", "zipf", "balanced", "uniform", "zipf",
                   "one_to_all", "uniform", "balanced", "zipf", "uniform")
SCENARIO_M = (16, 32, 64)
SCENARIO_L = (1.0, 4.0, 16.0)
SCENARIO_CYCLE = len(SCENARIO_SHAPES) * len(SCENARIO_M) * len(SCENARIO_L)
COLD_SAMPLE_RATE = 1 / 25  # replies re-computed directly and compared
WARM_FINGERPRINTS = 256


def scenario_request(seed: int, i: int) -> Tuple[Dict[str, Any], int, bool]:
    """``(params, request seed, sampled for checking)`` of request ``i``."""
    k = len(SCENARIO_SHAPES)
    params = {
        "workload": SCENARIO_SHAPES[i % k], "p": 64, "n": 20_000,
        "m": SCENARIO_M[i // k % len(SCENARIO_M)],
        "L": SCENARIO_L[i // (k * len(SCENARIO_M)) % len(SCENARIO_L)],
    }
    sampled = np.random.default_rng([seed, i]).random() < COLD_SAMPLE_RATE
    return params, seed * 1_000_000 + i, bool(sampled)


class Daemon:
    """One ``repro serve`` child on an ephemeral loopback port."""

    def __init__(self, workdir: Path, env: Dict[str, str],
                 spans_out: Optional[Path] = None) -> None:
        from repro.serve import ServeClient

        store = workdir / f"store-{time.monotonic_ns()}"
        serve_args = ["--port", "0", "--store-dir", str(store)]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, str(E2E_DIR / "traced_serve.py"),
                    "--spans-out", str(spans_out), "--", *serve_args]
        self.store = store
        self.spans_out = spans_out
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.client = ServeClient(line.split("listening on ")[1].split()[0])
            self.client.ping()
            self.ready_s = time.perf_counter() - self.started
        except BaseException:
            self.kill()
            raise

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful drain; the daemon must exit 0 after answering everything."""
        try:
            self.client.drain()
            out, _ = self.proc.communicate(timeout=60)
        finally:
            self.kill()
            shutil.rmtree(self.store, ignore_errors=True)
        if self.proc.returncode != 0 or "drained; bye" not in out:
            raise RuntimeError(f"daemon exited {self.proc.returncode}: {out[-300:]!r}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class _Served(Workload):
    threads = 2

    def __init__(self, seed, workdir, env) -> None:
        super().__init__(seed, workdir, env)
        self.daemon: Optional[Daemon] = None
        self._traced = False
        self._spans: List[list] = []  # spans of every traced daemon since open
        self._absent: List[str] = []

    def setup_time(self) -> float:
        daemon = Daemon(self.workdir, self.env)
        daemon.stop()
        return daemon.ready_s

    def _start(self) -> None:
        spans_out = (
            self.workdir / f"spans-{time.monotonic_ns()}.json" if self._traced else None
        )
        self.daemon = Daemon(self.workdir, self.env, spans_out)

    def open(self, traced: bool = False) -> None:
        self._traced = traced
        self._spans, self._absent = [], []
        self._start()

    def reopen(self) -> None:
        self.close()
        self._start()

    def submit(self, params, seed) -> Dict[str, Any]:
        reply = self.daemon.client.submit("scenario", params, seed=seed)
        if not reply.get("ok"):
            raise WrongAnswer(f"not ok: {reply!r}")
        return reply

    def cpu_s(self) -> Tuple[float, float]:
        return time.process_time(), self.daemon.cpu_s()

    def counters(self) -> Dict[str, float]:
        snap = self.daemon.client.metrics()
        flat = dict(snap["counters"])
        for name, hist in snap["histograms"].items():
            flat[f"{name}.sum"] = hist["sum"]
            flat[f"{name}.count"] = hist["count"]
        return flat

    def layer_metrics(self, counts, meas):
        def get(name):
            return counts.get(name, 0)

        def mean(name):
            count = get(f"{name}.count")
            return get(f"{name}.sum") / count if count else 0.0

        wait, service = mean("serve.wait_s"), mean("serve.service_s")
        hits, misses = get("serve.cache.hits"), get("serve.cache.misses")
        rounds, served = get("serve.rounds.scheduled"), get("serve.requests.ok")
        return {
            "serve.admission.wait_ms": wait * 1e3,
            "serve.admission.requests_per_round": (
                get("serve.rounds.requests") / rounds if rounds else 0.0
            ),
            "serve.executor.service_ms": service * 1e3,
            "serve.executor.coalesced_share": (
                get("serve.batch.coalesced") / served if served else 0.0
            ),
            "serve.executor.retries": float(get("serve.retry.attempts")),
            "serve.transport_ms": (meas.mean_latency_s() - wait - service) * 1e3,
            "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def span_totals(self, windows):
        self.close()  # a traced daemon writes its spans when it drains
        return spans.aggregate(self._spans, windows), list(self._absent)

    def close(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()
            if daemon.spans_out is not None:
                dump = json.loads(daemon.spans_out.read_text())
                daemon.spans_out.unlink()
                self._spans += dump["spans"]
                self._absent = dump["absent"]


class ServeCold(_Served):
    """Every round gets a fresh daemon and store and the same warm-up, so
    every round writes into the same sequence of store sizes."""

    name = "serve-cold"
    warmup = SCENARIO_CYCLE // 3
    round_ops = 5 * SCENARIO_CYCLE
    fresh_per_round = True

    def open(self, traced: bool = False) -> None:
        super().open(traced)
        self.samples: List[Tuple[int, Dict[str, Any], int, Any]] = []
        self._lock = threading.Lock()

    def op(self, i: int) -> None:
        params, seed, sampled = scenario_request(self.seed, i)
        reply = self.submit(params, seed)
        if reply["cached"]:
            raise WrongAnswer("a fresh seed was answered from the cache")
        self.record(i, [reply["result"]["model_time"]])
        if sampled:
            with self._lock:
                self.samples.append((i, params, seed, reply["result"]))

    def verify(self) -> List[int]:
        from repro.serve import run_scenario

        bad = []
        for i, params, seed, served in self.samples:
            direct = run_scenario(params, seed)
            if json.dumps(direct, sort_keys=True) != json.dumps(served, sort_keys=True):
                bad.append(i)
        self.samples = []
        return bad


class ServeWarm(_Served):
    name = "serve-warm"
    warmup = WARM_FINGERPRINTS
    round_ops = 10 * WARM_FINGERPRINTS

    def open(self, traced: bool = False) -> None:
        super().open(traced)
        self.cold: Dict[int, Any] = {}

        def prefill(j):
            reply = self.submit(*scenario_request(self.seed, j)[:2])
            self.cold[j] = reply["result"]

        filled = run_fixed(prefill, WARM_FINGERPRINTS, threads=self.threads)
        if filled.failed:
            raise RuntimeError(f"pre-fill failed: {filled.errors}")

    def op(self, i: int) -> None:
        j = i % WARM_FINGERPRINTS
        reply = self.submit(*scenario_request(self.seed, j)[:2])
        if not reply["cached"] or reply["result"] != self.cold[j]:
            raise WrongAnswer(f"warm reply {i} is not its cached cold answer")
        self.record(i, [reply["result"]["model_time"]])


WORKLOADS = {
    w.name: w for w in (ServeCold, ServeWarm, SweepAblation, Table1Programs)
}
