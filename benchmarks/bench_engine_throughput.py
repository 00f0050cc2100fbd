"""Engine throughput regression harness for the superstep barrier loop.

Measures simulator wall-clock throughput (messages or requests per second)
on three hot profiles and pins the corresponding *model* times, which must
be bit-identical across engine rewrites:

* **routing** — the 40k-message route-verify profile from
  docs/performance.md (Unbalanced-Send schedule executed end-to-end on a
  BSP(m) and delivery-verified; this takes the compiled-replay fast path
  of ``repro.scheduling.execute``).
* **qsm-phases** — a phase-heavy QSM(m) workload (alternating
  ``write_many`` / ``read_many`` phases over dense shared memory, arena
  freeze path).
* **delivery** — a balanced total exchange (p·(p−1) messages through one
  ``_deliver``-dominated superstep).
* **batched-replay** — the routing program compiled once and re-priced
  across a B=64 grid of ``(m, L)`` machines, sequentially
  (``compiled.replay`` per machine) vs. in one
  :func:`repro.core.batched.replay_batch` pass.  Per-trial results must be
  bit-identical, and the amortized-throughput floor
  (``BENCH_BATCHED_FLOOR``, default 5x) is asserted on every run.

The qsm profile asserts the no-allocation-growth contract: steady-state
reruns on one machine must not regrow the preallocated arenas.

Run standalone to (re)generate the regression baseline::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

which writes ``BENCH_engine.json`` (messages/s per profile plus the pinned
model times) to the repository root, or under pytest-benchmark like every
other file in this directory.  ``BENCH_ENGINE_PROFILES=batched-replay``
(comma-separated names) restricts a run to a subset of profiles — the CI
gating job uses it to re-run only the batched leg.
"""

import json
import os
import time

import numpy as np

from repro import BSPm, MachineParams, QSMm
from repro.algorithms.total_exchange import run_total_exchange
from repro.scheduling import unbalanced_send
from repro.scheduling.execute import execute_schedule
from repro.workloads import uniform_random_relation

from _common import emit

# The seed engine (pre-columnar) sustained ~200k msg/s on the routing
# profile (docs/performance.md); the columnar fast path held >= 5x and the
# arena/compiled path must hold >= 15x (>= 3x the columnar baseline).
SEED_ROUTING_MSGS_PER_S = 200_000.0
SPEEDUP_FLOOR = 15.0

# Pinned model times: the optimization contract is that *no* model time
# moves.  These are deterministic (fixed seeds), so equality is exact.
ROUTING_MODEL_TIME = 750.2839547352119

# Amortized per-trial throughput floor for the batched-replay profile:
# replay_batch at B=64 must beat sequential replay by at least this factor.
BATCHED_SPEEDUP_FLOOR = float(os.environ.get("BENCH_BATCHED_FLOOR", "5.0"))


def _routing_profile():
    rel = uniform_random_relation(256, 40_000, seed=0)
    sched = unbalanced_send(rel, 64, 0.2, seed=1)
    machine = BSPm(MachineParams(p=256, m=64, L=1))
    t0 = time.perf_counter()
    res = execute_schedule(machine, sched)
    dt = time.perf_counter() - t0
    return {
        "messages": int(rel.n),
        "seconds": dt,
        "msgs_per_s": rel.n / dt,
        "model_time": res.time,
    }


def _qsm_program(ctx, rounds, k, span):
    addrs = (ctx.pid * k + np.arange(k, dtype=np.int64)) % span
    values = np.arange(k, dtype=np.int64)
    total = 0
    for r in range(rounds):
        ctx.write_many(addrs, values)
        yield
        handle = ctx.read_many((addrs + (r + 1) * k) % span)
        yield
        total += len(handle)
    return total


def _qsm_profile(p=256, rounds=12, k=24):
    span = p * k
    machine = QSMm(MachineParams(p=p, m=32, L=2))
    machine.use_dense_memory(span)
    machine.run(_qsm_program, args=(rounds, k, span))  # warm the arenas
    arena_grows = [a.grows for a in machine._arenas]
    t0 = time.perf_counter()
    res = machine.run(_qsm_program, args=(rounds, k, span))
    dt = time.perf_counter() - t0
    # no-allocation-growth contract: a steady-state rerun on the same
    # machine must never regrow the preallocated arenas
    assert [a.grows for a in machine._arenas] == arena_grows, (
        "arenas grew on a steady-state rerun"
    )
    requests = 2 * rounds * k * p
    return {
        "requests": requests,
        "seconds": dt,
        "reqs_per_s": requests / dt,
        "model_time": res.time,
        "phases": res.supersteps,
    }


def _delivery_profile(p=192):
    machine = BSPm(MachineParams(p=p, m=48, L=1))
    t0 = time.perf_counter()
    res = run_total_exchange(machine)
    dt = time.perf_counter() - t0
    n = p * (p - 1)
    return {
        "messages": n,
        "seconds": dt,
        "msgs_per_s": n / dt,
        "model_time": res.time,
    }


def _batched_profile():
    from repro.core.batched import replay_batch
    from repro.scheduling.execute import compile_schedule

    rel = uniform_random_relation(256, 40_000, seed=0)
    sched = unbalanced_send(rel, 64, 0.2, seed=1)
    compiled = compile_schedule(sched)
    ms = (16, 24, 32, 48, 64, 96, 128, 192)
    Ls = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

    def grid():
        return [BSPm(MachineParams(p=256, m=m, L=L)) for m in ms for L in Ls]

    seq_machines = grid()
    t0 = time.perf_counter()
    seq = [compiled.replay(mach) for mach in seq_machines]
    dt_seq = time.perf_counter() - t0
    bat_machines = grid()
    t0 = time.perf_counter()
    bat = replay_batch(compiled, bat_machines)
    dt_bat = time.perf_counter() - t0
    # identity contract: every trial equals its sequential replay
    for mach, a, b in zip(seq_machines, seq, bat):
        assert b.time == a.time, f"model time moved at m={mach.params.m} L={mach.params.L}"
        assert len(b.records) == len(a.records)
        for ra, rb in zip(a.records, b.records):
            assert rb.stats == ra.stats
            assert rb.cost == ra.cost
        if mach.params.m == 64 and mach.params.L == 1.0:
            assert b.time == ROUTING_MODEL_TIME  # the routing profile's cell
    B = len(seq_machines)
    return {
        "trials": B,
        "seq_seconds": dt_seq,
        "batched_seconds": dt_bat,
        "trials_per_s": B / dt_bat,
        "amortized_trial_ms": 1e3 * dt_bat / B,
        "batched_speedup": dt_seq / dt_bat,
    }


_PROFILES = {
    "routing": _routing_profile,
    "qsm-phases": _qsm_profile,
    "delivery": _delivery_profile,
    "batched-replay": _batched_profile,
}


def run_all():
    names = os.environ.get("BENCH_ENGINE_PROFILES", "")
    selected = [s.strip() for s in names.split(",") if s.strip()] or list(_PROFILES)
    unknown = sorted(set(selected) - set(_PROFILES))
    if unknown:
        raise SystemExit(
            f"unknown BENCH_ENGINE_PROFILES {unknown}; choose from {sorted(_PROFILES)}"
        )
    return {name: _PROFILES[name]() for name in selected}


def _report(data):
    rows = []
    if "routing" in data:
        rows.append(["routing (40k route-verify)", data["routing"]["messages"],
                     data["routing"]["seconds"], data["routing"]["msgs_per_s"],
                     data["routing"]["model_time"]])
    if "qsm-phases" in data:
        rows.append(["qsm phases (dense mem)", data["qsm-phases"]["requests"],
                     data["qsm-phases"]["seconds"], data["qsm-phases"]["reqs_per_s"],
                     data["qsm-phases"]["model_time"]])
    if "delivery" in data:
        rows.append(["delivery (total exchange)", data["delivery"]["messages"],
                     data["delivery"]["seconds"], data["delivery"]["msgs_per_s"],
                     data["delivery"]["model_time"]])
    if "batched-replay" in data:
        b = data["batched-replay"]
        rows.append([f"batched replay (B={b['trials']})", b["trials"],
                     b["batched_seconds"], b["trials_per_s"], "-"])
    emit(
        "engine throughput (superstep barrier loop)",
        ["profile", "volume", "seconds", "throughput/s", "model time"],
        rows,
    )
    if "batched-replay" in data:
        b = data["batched-replay"]
        print(
            f"batched vs sequential replay (B={b['trials']}): "
            f"{b['batched_speedup']:.1f}x "
            f"({b['amortized_trial_ms']:.3f} ms/trial amortized)"
        )


def _check(data):
    if "routing" in data:
        # Optimizations must never move a model time.
        assert data["routing"]["model_time"] == ROUTING_MODEL_TIME
        # Acceptance floor: >= 5x the seed engine's routing throughput.
        speedup = data["routing"]["msgs_per_s"] / SEED_ROUTING_MSGS_PER_S
        assert speedup >= SPEEDUP_FLOOR, (
            f"routing throughput regressed: {data['routing']['msgs_per_s']:.0f} msg/s "
            f"is only {speedup:.1f}x the seed baseline (need >= {SPEEDUP_FLOOR}x)"
        )
    if "batched-replay" in data:
        b = data["batched-replay"]
        # the identity contract was asserted while profiling
        assert b["batched_speedup"] >= BATCHED_SPEEDUP_FLOOR, (
            f"batched replay at B={b['trials']} is only "
            f"{b['batched_speedup']:.1f}x sequential "
            f"(need >= {BATCHED_SPEEDUP_FLOOR}x)"
        )


def write_baseline(path="BENCH_engine.json"):
    data = run_all()
    if "routing" in data:
        data["routing"]["speedup_vs_seed"] = (
            data["routing"]["msgs_per_s"] / SEED_ROUTING_MSGS_PER_S
        )
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return data


def test_engine_throughput(benchmark):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    _report(data)
    benchmark.extra_info.update(data)
    _check(data)


if __name__ == "__main__":
    out = os.environ.get("BENCH_ENGINE_JSON", "BENCH_engine.json")
    result = write_baseline(out)
    _report(result)
    _check(result)
    tail = ""
    if "routing" in result:
        tail = f"  (routing speedup vs seed: {result['routing']['speedup_vs_seed']:.1f}x)"
    print(f"\nwrote {out}{tail}")
