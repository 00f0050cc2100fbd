"""Command-line experiment harness: ``python -m repro <command>``.

Gives downstream users the paper's experiments without writing code:

``table1``
    Print the analytic Table 1 at a chosen parameter point.
``measure``
    Run the Table-1 algorithms on all four machine models and print the
    measured model times (the executable Table 1).
``schedule``
    Schedule a chosen workload with every sender and print the Section-6
    comparison (optimal / randomized / grouped / naive / BSP(g)).
``dynamic``
    Run the Theorem 6.5 vs Theorem 6.7 stability experiment (optionally
    under message loss with ``--drop-rate``).
``chaos``
    Route a workload through the fault injector with the reliable
    transport and report delivered / lost / retried counts plus the
    resilience overhead against the fault-free run.
``compare``
    Diff two benchmark/telemetry JSON records (e.g. a fresh run against
    the committed ``BENCH_engine.json``) and flag regressions beyond a
    relative tolerance — exit 1 when any gated metric regressed
    (``--json`` emits the machine-readable comparison).
``ledger``
    Run a paper program with the per-superstep load ledger installed and
    print which restriction — local (``m``) or global (``g``) — binds at
    every barrier, plus the charge attribution (``--from FILE``
    summarizes a previously written dump instead).
``top``
    Live terminal view of a running serve daemon (``--url``/``--uds``)
    or a sweep telemetry file (``--telemetry``); ``--once`` prints a
    single frame and exits.

Every randomized subcommand accepts ``--seed``; a top-level
``python -m repro --seed N <command>`` sets the default for all of them,
and the effective seed is always echoed in the output header so any run
can be reproduced from its transcript.  Sweep-capable subcommands
(``experiment``, ``chaos --trials``) likewise accept ``--jobs`` — their
own or the top-level one — to fan independent trials across a process
pool (``repro.sweep``); outputs are bit-identical at any job count.

``measure``, ``experiment``, ``chaos`` and ``profile`` additionally accept
``--trace PATH`` (write a Chrome trace_event JSON — load it at
https://ui.perfetto.dev — plus a run manifest next to it, and print the
cost-attribution table), ``--metrics PATH`` (dump the metrics registry as
columnar JSON) and ``--ledger PATH`` (record the per-superstep load
ledger and dump it; combined with ``--trace`` the ledger also becomes a
Perfetto counter track).  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Callable, Dict

from repro.core.params import MachineParams
from repro.util.reporting import Table

__all__ = ["main", "build_parser"]


def _effective_seed(args: argparse.Namespace, default: int = 0) -> int:
    """Resolve a subcommand's seed: its own ``--seed``, else the top-level
    ``--seed``, else ``default``."""
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = getattr(args, "root_seed", None)
    if seed is None:
        seed = default
    return seed


def _effective_jobs(args: argparse.Namespace, default: int = 1) -> int:
    """Resolve a subcommand's worker count: its own ``--jobs``, else the
    top-level ``--jobs``, else serial (``0`` means all cores)."""
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = getattr(args, "root_jobs", None)
    if jobs is None:
        jobs = default
    from repro.sweep import resolve_jobs

    return resolve_jobs(jobs)


def _positive(kind: Callable[[str], float], noun: str) -> Callable[[str], float]:
    """argparse type: a strictly positive finite ``kind`` (int or float)."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a positive {noun}, got {text!r}")
        return value

    return parse


_positive_int = _positive(int, "integer")
_positive_float = _positive(float, "number")


#: namespace entries that are CLI plumbing, not run parameters
_MANIFEST_SKIP = frozenset(
    {"func", "command", "trace", "metrics", "ledger", "json", "root_seed",
     "root_jobs"}
)


def _manifest_params(args: argparse.Namespace) -> dict:
    return {
        k: v for k, v in vars(args).items()
        if k not in _MANIFEST_SKIP and not callable(v)
    }


@contextlib.contextmanager
def _observe(args: argparse.Namespace):
    """No-op unless the subcommand was given ``--trace``/``--metrics``/
    ``--ledger``.

    Otherwise install a :class:`~repro.obs.Tracer`,
    :class:`~repro.obs.MetricsRegistry` and/or
    :class:`~repro.obs.LoadLedger` around the command and, on the way
    out — even when the command failed, since a partial trace is exactly
    the diagnostic you want then — write the Chrome trace, the metrics
    dump, the ledger dump, and a run manifest next to the first artifact,
    and print the cost-attribution and binding tables.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    ledger_path = getattr(args, "ledger", None)
    if not trace_path and not metrics_path and not ledger_path:
        yield
        return
    from repro import obs

    tracer = obs.Tracer() if trace_path else None
    registry = obs.MetricsRegistry() if metrics_path else None
    ledger = obs.LoadLedger() if ledger_path else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs.tracing(tracer))
        if registry is not None:
            stack.enter_context(obs.metrics_scope(registry))
        if ledger is not None:
            stack.enter_context(obs.ledger_scope(ledger))
        try:
            yield
        finally:
            if tracer is not None:
                obs.write_chrome_trace(tracer, trace_path, ledger=ledger)
                print(f"wrote {trace_path} ({len(tracer.spans)} spans)")
                if tracer.find(cat="superstep"):
                    print(obs.cost_attribution_table(tracer))
            if registry is not None:
                obs.write_metrics_json(registry, metrics_path)
                print(f"wrote {metrics_path}")
            if ledger is not None:
                ledger.to_json(ledger_path)
                print(f"wrote {ledger_path} ({len(ledger)} superstep rows)")
                if len(ledger):
                    counts = ledger.binding_counts()
                    print(
                        "binding: "
                        + "  ".join(f"{k}={v}" for k, v in counts.items())
                        + f"  total charge={ledger.total_charge():g}"
                    )
            seed = _effective_seed(args) if hasattr(args, "seed") else None
            jobs = _effective_jobs(args) if hasattr(args, "jobs") else None
            manifest = obs.build_manifest(
                command=args.command,
                params=_manifest_params(args),
                seed=seed,
                jobs=jobs,
                # every machine the CLI builds uses the default penalty family
                penalty="exponential",
                trace_path=trace_path,
                metrics_path=metrics_path,
                extra={"ledger_path": ledger_path} if ledger_path else None,
            )
            mpath = obs.manifest_path(trace_path or metrics_path or ledger_path)
            obs.write_manifest(mpath, manifest)
            print(f"wrote {mpath}")


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.theory import render_table1

    print(render_table1(p=args.p, L=args.L, m=args.m))
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.experiments import table1_measured

    res = table1_measured(p=args.p, m=args.m, L=args.L)
    columns = {"qsm_m": "QSM(m)", "qsm_g": "QSM(g)", "bsp_m": "BSP(m)", "bsp_g": "BSP(g)"}
    table = Table(
        ["problem"] + list(columns.values()),
        title=f"measured model times (p = n = {res['p']}, m = {res['m']}, "
        f"g = {res['g']:g}, L = {res['L']:g})",
    )
    for prob, times in res["times"].items():
        table.add_row([prob.replace("_", "-")] + [times[k] for k in columns])
    print(table.render())
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.scheduling import (
        bsp_g_routing_time,
        evaluate_schedule,
        grouped_schedule,
        naive_schedule,
        offline_optimal_schedule,
        unbalanced_consecutive_send,
        unbalanced_granular_send,
        unbalanced_send,
    )
    from repro.workloads import build_relation

    seed = _effective_seed(args)
    rel = build_relation(args.workload, args.p, args.n, args.alpha, seed)
    g = args.p / args.m
    schedulers = {
        "offline optimal": lambda: offline_optimal_schedule(rel, args.m),
        "unbalanced-send": lambda: unbalanced_send(rel, args.m, args.epsilon, seed=seed),
        "consecutive": lambda: unbalanced_consecutive_send(rel, args.m, args.epsilon, seed=seed),
        "granular": lambda: unbalanced_granular_send(rel, args.m, seed=seed),
        "grouped (g-emulation)": lambda: grouped_schedule(rel, args.m),
        "naive": lambda: naive_schedule(rel),
    }
    print(f"# seed = {seed}")
    table = Table(
        ["scheduler", "span", "completion", "T/OPT", "overloaded slots"],
        title=(
            f"workload={args.workload} p={args.p} n={rel.n} m={args.m} "
            f"(x̄={rel.x_bar}, ȳ={rel.y_bar}, imbalance={rel.imbalance():.1f})"
        ),
    )
    for name, make in schedulers.items():
        rep = evaluate_schedule(make(), m=args.m)
        table.add_row([name, rep.span, rep.completion_time, round(rep.ratio, 3), rep.overloaded_slots])
    print(table.render())
    print(f"\nBSP(g) comparison (Proposition 6.1): {bsp_g_routing_time(rel, g):g}")
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from repro.dynamic import (
        AlgorithmBProtocol,
        BSPgIntervalProtocol,
        LossyAlgorithmBProtocol,
        SingleTargetAdversary,
        run_dynamic,
    )

    seed = _effective_seed(args)
    lossy = args.drop_rate > 0.0
    local, global_ = MachineParams.matched_pair(p=args.p, m=args.m, L=args.L)
    g = local.g
    columns = ["beta·g", "BSP(g) slope", "BSP(g)", "AlgB slope", "AlgB"]
    if lossy:
        columns += [f"AlgB q={args.drop_rate:g} slope", "AlgB lossy"]
    print(f"# seed = {seed}")
    table = Table(
        columns,
        title=f"single-source flood stability (p={args.p}, m={args.m}, g={g:g}, w={args.window})",
    )
    for beta_g in (0.5, 1.5, 3.0):
        beta = beta_g / g
        trace = SingleTargetAdversary(args.p, args.window, beta=beta).generate(
            args.horizon, seed=seed
        )
        res_g = run_dynamic(BSPgIntervalProtocol(local, args.window), trace)
        res_m = run_dynamic(
            AlgorithmBProtocol(global_, args.window, alpha=beta, seed=seed), trace
        )
        row = [beta_g, round(res_g.backlog_slope(), 5),
               "stable" if res_g.is_stable() else "UNSTABLE",
               round(res_m.backlog_slope(), 5),
               "stable" if res_m.is_stable() else "UNSTABLE"]
        if lossy:
            res_q = run_dynamic(
                LossyAlgorithmBProtocol(
                    global_, args.window, alpha=beta,
                    drop_rate=args.drop_rate, seed=seed,
                ),
                trace,
            )
            row += [round(res_q.backlog_slope(), 5),
                    "stable" if res_q.is_stable() else "UNSTABLE"]
        table.add_row(row)
    print(table.render())
    return 0


def _profile_workloads() -> Dict[str, Callable[[], None]]:
    """Named hot-path workloads for ``python -m repro profile``."""

    def route() -> None:
        from repro import BSPm
        from repro.scheduling import unbalanced_send
        from repro.scheduling.execute import execute_schedule
        from repro.workloads import uniform_random_relation

        rel = uniform_random_relation(256, 40_000, seed=0)
        sched = unbalanced_send(rel, 64, 0.2, seed=1)
        execute_schedule(BSPm(MachineParams(p=256, m=64, L=1)), sched)

    def qsm_phases() -> None:
        import numpy as np

        from repro import QSMm

        p, rounds, k = 256, 12, 24
        span = p * k

        def program(ctx):
            addrs = (ctx.pid * k + np.arange(k, dtype=np.int64)) % span
            values = np.arange(k, dtype=np.int64)
            for r in range(rounds):
                ctx.write_many(addrs, values)
                yield
                ctx.read_many((addrs + (r + 1) * k) % span)
                yield

        machine = QSMm(MachineParams(p=p, m=32, L=2))
        machine.use_dense_memory(span)
        machine.run(program)

    def delivery() -> None:
        from repro import BSPm
        from repro.algorithms.total_exchange import run_total_exchange

        run_total_exchange(BSPm(MachineParams(p=192, m=48, L=1)))

    def schedule() -> None:
        from repro.scheduling import evaluate_schedule, unbalanced_send
        from repro.workloads import uniform_random_relation

        rel = uniform_random_relation(1024, 1_000_000, seed=2)
        evaluate_schedule(unbalanced_send(rel, 256, 0.2, seed=3), m=256)

    def algorithms() -> None:
        # the two high-volume bench_algorithms_e2e.py profiles, downsized
        import numpy as np

        from repro import BSPm
        from repro.algorithms.qsm_on_bsp import run_qsm_program_on_bsp
        from repro.algorithms.sample_sort import sample_sort

        p, h, phases = 64, 512, 4
        span = p * h

        def hrel(ctx):
            j = np.arange(h, dtype=np.int64)
            for ph in range(phases):
                base = ctx.pid * h + ph
                if ph % 2 == 0:
                    ctx.write_many((base + j * 2) % span, (ctx.pid + j).astype(np.float64))
                else:
                    ctx.read_many((base + j * 3 + 1) % span)
                yield

        keys = np.random.default_rng(7).uniform(-1e6, 1e6, size=60_000)
        sample_sort(BSPm(MachineParams(p=p, m=16, L=2)), keys, seed=7)
        run_qsm_program_on_bsp(BSPm(MachineParams(p=p, m=16, L=2)), hrel)

    def dynamic() -> None:
        from repro.dynamic import AlgorithmBProtocol, UniformAdversary, run_dynamic

        _, global_ = MachineParams.matched_pair(p=256, m=16, L=8.0)
        trace = UniformAdversary(256, 128, alpha=8.0, beta=8.0).generate(
            100_000, seed=0
        )
        run_dynamic(AlgorithmBProtocol(global_, 128, alpha=8.0, seed=1), trace)

    def batch() -> None:
        # the batched-replay hot path: one recorded routing program priced
        # across a B=64 grid of (m, L) machines in a single pass
        from repro import BSPm
        from repro.core.batched import replay_batch
        from repro.scheduling import unbalanced_send
        from repro.scheduling.execute import compile_schedule
        from repro.workloads import uniform_random_relation

        rel = uniform_random_relation(256, 40_000, seed=0)
        sched = unbalanced_send(rel, 64, 0.2, seed=1)
        compiled = compile_schedule(sched)
        machines = [
            BSPm(MachineParams(p=256, m=m, L=L))
            for m in (16, 24, 32, 48, 64, 96, 128, 192)
            for L in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
        ]
        replay_batch(compiled, machines)

    return {
        "route": route,
        "qsm-phases": qsm_phases,
        "delivery": delivery,
        "schedule": schedule,
        "algorithms": algorithms,
        "dynamic": dynamic,
        "batch": batch,
    }


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    workloads = _profile_workloads()
    if args.workload == "list":
        for wname in workloads:
            print(wname)
        return 0
    run = workloads[args.workload]
    run()  # warm-up: imports and first-call caches stay out of the profile
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import UnknownExperimentError, list_experiments, run_experiment

    if args.name == "list":
        for name in list_experiments():
            print(name)
        return 0
    seed = _effective_seed(args)
    jobs = _effective_jobs(args)
    print(f"# seed = {seed}  jobs = {jobs}")
    kwargs = {"seed": seed, "jobs": jobs}
    if args.on_error != "raise":
        import inspect

        from repro.experiments import EXPERIMENTS

        fn = EXPERIMENTS.get(args.name)
        if fn is not None and "on_error" not in inspect.signature(fn).parameters:
            print(
                f"error: experiment {args.name!r} does not run a sweep; "
                "--on-error does not apply",
                file=sys.stderr,
            )
            return 2
        kwargs["on_error"] = args.on_error
    try:
        result = run_experiment(args.name, **kwargs)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(result, indent=2, default=float)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json}")
    else:
        print(text)
    skipped = result.get("sweep_errors", {}).get("skipped", 0)
    if skipped:
        print(f"# {skipped} trial(s) skipped under --on-error {args.on_error}",
              file=sys.stderr)
        return 3
    return 0


def _parse_proc_fault(text: str):
    """Parse a ``pid:start[:duration]`` CLI fault spec into a tuple."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected pid:start[:duration], got {text!r}"
        )
    try:
        nums = [int(x) for x in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers in pid:start[:duration], got {text!r}"
        ) from None
    pid, start = nums[0], nums[1]
    duration = nums[2] if len(nums) == 3 else 1
    return pid, start, duration


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults import CrashSpec, FaultPlan, StallSpec, TransportError
    from repro.models.bsp_m import BSPm
    from repro.scheduling import route_reliable
    from repro.workloads import build_relation

    seed = _effective_seed(args)
    if args.workload == "route-verify":
        # the docs/performance.md 40k-flit routing profile, pinned so the CI
        # smoke exercises exactly the throughput-bench configuration
        p, n, m, L = 256, 40_000, 64, 1.0
    else:
        p, n, m, L = args.p, args.n, args.m, args.L
    if args.trials > 1:
        return _chaos_sweep(args, seed, p, n, m, L)
    rel = build_relation(args.workload, p, n, args.alpha, seed)
    machine = BSPm(MachineParams(p=p, m=m, L=L))
    plan = FaultPlan(
        seed=seed,
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        reorder_rate=args.reorder_rate,
        corrupt_rate=args.corrupt_rate,
        stalls=tuple(StallSpec(pid=a, start=b, duration=c) for a, b, c in args.stall),
        crashes=tuple(CrashSpec(pid=a, start=b, duration=c) for a, b, c in args.crash),
    )
    machine.inject_faults(plan)
    print(f"# chaos {args.workload} (p={p}, n={rel.n}, m={m}, L={L:g})")
    print(f"# seed = {seed}")
    print(
        f"# plan: drop={plan.drop_rate:g} duplicate={plan.duplicate_rate:g} "
        f"reorder={plan.reorder_rate:g} corrupt={plan.corrupt_rate:g} "
        f"stalls={len(plan.stalls)} crashes={len(plan.crashes)}"
    )
    status = 0
    try:
        result = route_reliable(
            machine, rel,
            epsilon=args.epsilon, seed=seed,
            max_rounds=args.max_rounds, backoff_base=args.backoff_base,
            audit=args.audit,
        )
        report = result.to_dict()
    except TransportError as exc:
        result = exc.result
        report = result.to_dict()
        report["error"] = str(exc)
        print(f"TRANSPORT FAILED: {exc}")
        status = 1
    table = Table(["metric", "value"], title="reliable transport under chaos")
    table.add_row(["flits", result.n])
    table.add_row(["rounds", result.rounds])
    table.add_row(["delivered", result.delivered])
    table.add_row(["exactly once", str(result.exactly_once)])
    table.add_row(["lost in flight", result.dropped])
    table.add_row(["retried", result.retried])
    table.add_row(["duplicates", result.duplicates])
    table.add_row(["corrupted", result.corrupted])
    table.add_row(["backoff supersteps", result.backoff_steps])
    table.add_row(["fault-free time", round(result.fault_free_time, 3)])
    table.add_row(["protocol time", round(result.time, 3)])
    table.add_row(["resilience overhead", f"{result.overhead:.3f}x"])
    print(table.render())
    if args.json:
        report["workload"] = args.workload
        report["seed"] = seed
        report["plan"] = {
            "drop_rate": plan.drop_rate,
            "duplicate_rate": plan.duplicate_rate,
            "reorder_rate": plan.reorder_rate,
            "corrupt_rate": plan.corrupt_rate,
            "stalls": len(plan.stalls),
            "crashes": len(plan.crashes),
        }
        with open(args.json, "w") as fh:
            fh.write(json.dumps(report, indent=2, default=float) + "\n")
        print(f"wrote {args.json}")
    return status


def _chaos_sweep(
    args: argparse.Namespace, seed: int, p: int, n: int, m: int, L: float
) -> int:
    """``chaos --trials N``: fan N independent seeded chaos runs through
    the sweep engine and print the aggregate resilience statistics."""
    import json

    from repro.faults.chaos import chaos_trial, summarize_chaos_sweep
    from repro.sweep import SweepSpec, run_sweep

    jobs = _effective_jobs(args)
    spec = SweepSpec(
        name="chaos",
        fn=chaos_trial,
        grid={args.workload: {}},
        trials=args.trials,
        common=dict(
            workload=args.workload, p=p, n=n, m=m, L=L,
            alpha=args.alpha, epsilon=args.epsilon,
            drop_rate=args.drop_rate, duplicate_rate=args.duplicate_rate,
            reorder_rate=args.reorder_rate, corrupt_rate=args.corrupt_rate,
            stalls=tuple(args.stall), crashes=tuple(args.crash),
            max_rounds=args.max_rounds, backoff_base=args.backoff_base,
            audit=args.audit,
        ),
        seed=seed,
    )
    print(f"# chaos sweep {args.workload} (p={p}, n={n}, m={m}, L={L:g})")
    print(f"# seed = {seed}  jobs = {jobs}  trials = {args.trials}")
    sweep = run_sweep(spec, jobs=jobs, on_error=args.on_error)
    summary = summarize_chaos_sweep(sweep.results)
    if not summary["trials"]:
        print(f"all {summary['skipped']} trial(s) skipped "
              f"under --on-error {args.on_error}", file=sys.stderr)
        return 3
    table = Table(["metric", "value"], title="reliable transport under chaos (sweep)")
    table.add_row(["trials", summary["trials"]])
    if summary.get("skipped"):
        table.add_row(["skipped trials", summary["skipped"]])
    table.add_row(["transport failures", summary["failures"]])
    table.add_row(["exactly-once rate", f"{summary['exactly_once_rate']:.3f}"])
    table.add_row(["delivered (total)", summary["delivered_total"]])
    table.add_row(["lost in flight (total)", summary["dropped_total"]])
    table.add_row(["retried (total)", summary["retried_total"]])
    table.add_row(["rounds mean / max",
                   f"{summary['rounds']['mean']:.2f} / {summary['rounds']['max']}"])
    table.add_row(["overhead mean / p95 / max",
                   f"{summary['overhead']['mean']:.3f} / "
                   f"{summary['overhead']['p95']:.3f} / {summary['overhead']['max']:.3f}x"])
    tel = sweep.telemetry()
    table.add_row(["sweep elapsed", f"{tel['elapsed_s']:.2f}s"])
    table.add_row(["worker utilization", f"{tel['utilization']:.2f}"])
    print(table.render())
    if args.json:
        record = {
            "workload": args.workload, "seed": seed,
            "summary": summary, "telemetry": tel, "trials": sweep.results,
        }
        with open(args.json, "w") as fh:
            fh.write(json.dumps(record, indent=2, default=float) + "\n")
        print(f"wrote {args.json}")
    if summary["failures"]:
        return 1
    return 3 if summary.get("skipped") else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import json

    from repro.obs import compare_files

    try:
        comparison = compare_files(args.baseline, args.candidate, tolerance=args.tolerance)
    except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        text = json.dumps(comparison.to_dict(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text)
            print(f"wrote {args.json}")
    else:
        print(comparison.render(all_rows=args.all))
    return 1 if comparison.regressions else 0


#: ``repro ledger`` model spellings → (class name, uses the global (m) or
#: the local (g) half of the matched parameter pair)
_LEDGER_MODELS = {
    "bsp-m": ("BSPm", True),
    "bsp-g": ("BSPg", False),
    "qsm-m": ("QSMm", True),
    "qsm-g": ("QSMg", False),
}


def _cmd_ledger(args: argparse.Namespace) -> int:
    """``repro ledger`` — run one paper program under the load ledger and
    print which restriction binds at every superstep barrier."""
    import json

    import repro
    from repro.obs import LoadLedger, ledger_scope, ledger_table

    if args.from_file:
        with open(args.from_file) as fh:
            dump = json.load(fh)
        print(ledger_table(dump, top=args.top))
        summary = dump.get("summary") or {}
        if summary:
            counts = summary.get("binding", {})
            print("binding: " + "  ".join(f"{k}={v}" for k, v in counts.items()))
        return 0

    if args.program is None:
        print("error: pass a program to run, or --from FILE to summarize "
              "an existing dump", file=sys.stderr)
        return 2
    seed = _effective_seed(args)
    local, global_ = MachineParams.matched_pair(p=args.p, m=args.m, L=args.L)
    cls_name, wants_global = _LEDGER_MODELS[args.model]
    machine = getattr(repro, cls_name)(global_ if wants_global else local)
    if args.program == "route" and machine.uses_shared_memory:
        print(f"error: route sends point-to-point messages; --model "
              f"{args.model} is a shared-memory model, use bsp-m or bsp-g",
              file=sys.stderr)
        return 2

    ledger = LoadLedger()
    with ledger_scope(ledger):
        if args.program == "route":
            from repro.scheduling import unbalanced_send
            from repro.scheduling.execute import execute_schedule
            from repro.workloads import uniform_random_relation

            rel = uniform_random_relation(args.p, args.n, seed=seed)
            sched = unbalanced_send(rel, args.m, args.epsilon, seed=seed)
            execute_schedule(machine, sched)
        else:
            from repro.experiments import table1_program

            table1_program(args.program.replace("-", "_"), machine)
    print(
        f"# {args.program} on {cls_name} "
        f"(p={args.p}, m={args.m}, g={local.g:g}, L={args.L:g}, seed={seed})"
    )
    print(ledger_table(ledger, top=args.top))
    counts = ledger.binding_counts()
    by = ledger.charge_by_binding()
    print(
        "binding: "
        + "  ".join(f"{k}={counts[k]} ({by[k]:g})" for k in counts)
        + f"  total charge={ledger.total_charge():g}"
    )
    if args.json:
        ledger.to_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top`` — live view of a daemon or a sweep telemetry file."""
    from repro.obs.top import make_source, run_top

    try:
        source = make_source(
            url=args.url, uds=args.uds, telemetry=args.telemetry
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_top(source, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache {stats,clear,path}`` — the serve daemon's persistent
    response store (see docs/serving.md)."""
    import json

    from repro.store import default_store_path, summarize_store, wipe_store

    path = args.dir if args.dir else default_store_path()
    if args.action == "path":
        print(path)
        return 0
    if args.action == "clear":
        removed = wipe_store(path)
        if args.json:
            print(json.dumps({"path": path, "entries_removed": removed}))
        else:
            print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {path}")
        return 0
    # stats: the on-disk footprint.  summarize_store() only reads — it
    # never opens the store, so a tag mismatch is reported, not acted on.
    disk = summarize_store(path)
    if args.json:
        print(json.dumps({"disk": disk}, indent=2))
        return 0
    table = Table(["metric", "value"], title="response store")
    table.add_row(["store path", disk["path"]])
    table.add_row(["store exists", str(disk["exists"])])
    table.add_row(["store entries", disk["entries"]])
    table.add_row(["store bytes", disk["bytes"]])
    tag = disk["tag"]
    stale = tag is not None and tag != disk["current_tag"]
    table.add_row(["store tag", f"{tag}{' (STALE: will invalidate on open)' if stale else ''}"])
    print(table.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — run the simulation daemon until SIGTERM/SIGINT
    (graceful drain) or a ``POST /v1/drain``.  See docs/serving.md."""
    import json as _json

    from repro.serve import AdmissionConfig, ExecutorConfig, ReproServer
    from repro.serve.chaos import plan_from_env
    from repro.store import default_store_path
    from repro.store.disk import DiskStore

    chaos = plan_from_env()
    store = None
    if not args.no_store:
        store_dir = args.store_dir or default_store_path()
        store = DiskStore(
            store_dir, io_fault=chaos.io_fault if chaos.disk_full_rate else None
        )
    try:
        admission = AdmissionConfig(
            budget_m=args.budget_m,
            epsilon=args.epsilon,
            max_queue=args.max_queue,
            oversized_factor=args.oversized_factor,
            max_batch=args.max_batch,
            seed=_effective_seed(args),
        )
        executor = ExecutorConfig(
            workers=args.workers,
            max_attempts=args.max_attempts,
            quarantine_after=args.quarantine_after,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = ReproServer(
        host=args.host,
        port=args.port,
        admission=admission,
        executor=executor,
        store=store,
        chaos=chaos,
        uds=args.uds,
    )
    server.install_signal_handlers()
    server.start()
    print(f"repro serve listening on {server.url}", flush=True)
    if store is not None:
        print(f"persistent store: {store.root}", flush=True)
    if not chaos.is_null:
        print(f"chaos plan active: {chaos}", flush=True)
    server.serve_until_drained()
    snapshot = server.metrics.snapshot()
    if args.metrics_dump:
        with open(args.metrics_dump, "w") as fh:
            fh.write(_json.dumps(snapshot, indent=2, default=float) + "\n")
        print(f"wrote {args.metrics_dump}", flush=True)
    print("drained; bye", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (subcommands: table1, measure,
    schedule, dynamic)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Experiment harness for the SPAA'97 bandwidth-models reproduction.",
    )
    parser.add_argument(
        "--seed",
        dest="root_seed",
        type=int,
        default=None,
        help="default seed for every randomized subcommand (a subcommand's "
        "own --seed wins); the effective seed is echoed in the output",
    )
    parser.add_argument(
        "--jobs",
        dest="root_jobs",
        type=int,
        default=None,
        help="default worker-process count for sweep-capable subcommands "
        "(a subcommand's own --jobs wins; 0 = all cores; output is "
        "bit-identical at any job count)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="print the analytic Table 1")
    t1.add_argument("--p", type=_positive_int, default=4096)
    t1.add_argument("--m", type=_positive_int, default=256)
    t1.add_argument("--L", type=float, default=4.0)
    t1.set_defaults(func=_cmd_table1)

    me = sub.add_parser("measure", help="measured Table 1 on all four models")
    me.add_argument("--p", type=_positive_int, default=256)
    me.add_argument("--m", type=_positive_int, default=16)
    me.add_argument("--L", type=_positive_float, default=8.0)
    _add_obs_args(me)
    me.set_defaults(func=_cmd_measure)

    sc = sub.add_parser("schedule", help="compare the Section 6 senders on a workload")
    sc.add_argument("--workload", choices=["balanced", "uniform", "zipf", "one-to-all"], default="zipf")
    sc.add_argument("--p", type=_positive_int, default=1024)
    sc.add_argument("--n", type=int, default=100_000)
    sc.add_argument("--m", type=_positive_int, default=64)
    sc.add_argument("--alpha", type=float, default=1.2)
    sc.add_argument("--epsilon", type=float, default=0.15)
    sc.add_argument("--seed", type=int, default=None)
    sc.set_defaults(func=_cmd_schedule)

    dy = sub.add_parser("dynamic", help="Theorem 6.5 vs 6.7 stability experiment")
    dy.add_argument("--p", type=_positive_int, default=256)
    dy.add_argument("--m", type=_positive_int, default=16)
    dy.add_argument("--L", type=_positive_float, default=8.0)
    dy.add_argument("--window", type=_positive_int, default=128)
    dy.add_argument("--horizon", type=int, default=20_000)
    dy.add_argument("--seed", type=int, default=None)
    dy.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="per-traversal message-loss probability; > 0 adds the "
        "LossyAlgorithmB stability-under-loss columns",
    )
    dy.set_defaults(func=_cmd_dynamic)

    pr = sub.add_parser(
        "profile",
        help="cProfile a hot-path workload and print the top functions",
    )
    pr.add_argument(
        "workload",
        choices=["route", "qsm-phases", "delivery", "schedule",
                 "algorithms", "dynamic", "batch", "list"],
        help='workload to profile ("list" to enumerate): algorithms = the '
        "bench_algorithms_e2e profiles, dynamic = a 100k-interval "
        "run_dynamic horizon, batch = a B=64 batched replay of one "
        "compiled routing program",
    )
    pr.add_argument(
        "--top", type=_positive_int, default=20,
        help="rows of the cumulative-time table (must be positive)",
    )
    _add_obs_args(pr)
    pr.set_defaults(func=_cmd_profile)

    ex = sub.add_parser(
        "experiment",
        help="run a registered experiment and print/save its JSON record",
    )
    ex.add_argument("name", help='"list" to enumerate, or an experiment name')
    ex.add_argument("--seed", type=int, default=None)
    ex.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the experiment's trial fan-out "
        "(0 = all cores; default serial)",
    )
    ex.add_argument("--json", default=None, help="write the record to this file")
    _add_on_error_arg(ex)
    _add_obs_args(ex)
    ex.set_defaults(func=_cmd_experiment)

    ch = sub.add_parser(
        "chaos",
        help="route a workload through the fault injector with the "
        "reliable transport and report the resilience overhead",
    )
    ch.add_argument(
        "workload",
        choices=["route-verify", "balanced", "uniform", "zipf", "one-to-all"],
        help='"route-verify" pins the docs/performance.md 40k-flit routing '
        "profile (p=256, m=64, L=1); the others honour --p/--n/--m/--L",
    )
    ch.add_argument("--p", type=_positive_int, default=256)
    ch.add_argument("--n", type=int, default=20_000)
    ch.add_argument("--m", type=_positive_int, default=64)
    ch.add_argument("--L", type=_positive_float, default=1.0)
    ch.add_argument("--alpha", type=float, default=1.2, help="zipf skew")
    ch.add_argument("--epsilon", type=float, default=0.15)
    ch.add_argument("--seed", type=int, default=None)
    ch.add_argument("--drop-rate", type=float, default=0.05)
    ch.add_argument("--duplicate-rate", type=float, default=0.0)
    ch.add_argument("--reorder-rate", type=float, default=0.0)
    ch.add_argument("--corrupt-rate", type=float, default=0.0)
    ch.add_argument(
        "--stall",
        type=_parse_proc_fault,
        action="append",
        default=[],
        metavar="PID:START[:DUR]",
        help="stall a processor for DUR supersteps (repeatable)",
    )
    ch.add_argument(
        "--crash",
        type=_parse_proc_fault,
        action="append",
        default=[],
        metavar="PID:START[:DUR]",
        help="crash a processor for DUR supersteps (repeatable)",
    )
    ch.add_argument("--max-rounds", type=_positive_int, default=64)
    ch.add_argument("--backoff-base", type=_positive_int, default=1)
    ch.add_argument(
        "--trials", type=int, default=1,
        help="> 1 sweeps that many independently seeded chaos runs and "
        "reports aggregate statistics",
    )
    ch.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for --trials > 1 (0 = all cores)",
    )
    ch.add_argument(
        "--audit",
        action="store_true",
        help="run every superstep through the invariant auditor",
    )
    ch.add_argument("--json", default=None, help="write the report to this file")
    _add_on_error_arg(ch)
    _add_obs_args(ch)
    ch.set_defaults(func=_cmd_chaos)

    ca = sub.add_parser(
        "cache",
        help="inspect or clear the serve daemon's persistent response store",
    )
    ca.add_argument(
        "action",
        choices=["stats", "clear", "path"],
        help="stats: the store's on-disk footprint; clear: wipe the "
        "store; path: print the store directory",
    )
    ca.add_argument(
        "--dir", default=None, metavar="PATH",
        help="store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/store)",
    )
    ca.add_argument("--json", action="store_true", help="emit JSON")
    ca.set_defaults(func=_cmd_cache)

    sv = sub.add_parser(
        "serve",
        help="run the simulation daemon (JSON over HTTP; graceful drain "
        "on SIGTERM)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8377,
        help="listen port (0 = ephemeral; the chosen port is printed)",
    )
    sv.add_argument(
        "--budget-m", type=int, default=4096,
        help="admission bandwidth budget m, in flits per slot of the "
        "Unbalanced-Send round schedule",
    )
    sv.add_argument(
        "--epsilon", type=float, default=0.2,
        help="window slack of the admission draw (W = (1+eps)·total/m)",
    )
    sv.add_argument(
        "--max-queue", type=int, default=64,
        help="bound on queued plus drawn requests; beyond it submissions "
        "shed with E_QUEUE_FULL (HTTP 429)",
    )
    sv.add_argument(
        "--oversized-factor", type=int, default=64,
        help="shed requests costing more than FACTOR × budget-m flits "
        "with E_OVERSIZED (HTTP 413)",
    )
    sv.add_argument(
        "--max-batch", type=int, default=16,
        help="requests scheduled per admission round",
    )
    sv.add_argument(
        "--workers", type=int, default=4,
        help="requests in service at once, each on the HTTP thread that "
        "accepted it; every compute runs on one compute-lane thread",
    )
    sv.add_argument(
        "--uds", default=None, metavar="PATH",
        help="listen on a Unix-domain socket at PATH instead of TCP "
        "(host/port are ignored; clients use ServeClient(uds=PATH))",
    )
    sv.add_argument(
        "--max-attempts", type=int, default=3,
        help="tries per submission before E_CRASHED",
    )
    sv.add_argument(
        "--quarantine-after", type=int, default=3,
        help="cumulative failures of one request fingerprint before it is "
        "quarantined (E_QUARANTINED)",
    )
    sv.add_argument(
        "--store-dir", default=None, metavar="PATH",
        help="persistent store of the daemon's responses (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/store)",
    )
    sv.add_argument(
        "--no-store", action="store_true",
        help="serve without the persistent cache (every request recomputes)",
    )
    sv.add_argument(
        "--metrics-dump", default=None, metavar="PATH",
        help="on drain, write the serve.* metrics snapshot as JSON "
        "(repro compare consumes it)",
    )
    sv.add_argument("--seed", type=int, default=None)
    sv.set_defaults(func=_cmd_serve)

    cp = sub.add_parser(
        "compare",
        help="diff two benchmark/telemetry JSON records and flag regressions",
    )
    cp.add_argument(
        "baseline", help="committed reference record (e.g. BENCH_engine.json)"
    )
    cp.add_argument("candidate", help="freshly produced record to vet")
    cp.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative regression tolerance for gated metrics (default 0.05; "
        "model-time keys are always exact)",
    )
    cp.add_argument(
        "--all", action="store_true",
        help="print every compared key, not only regressions and drift",
    )
    cp.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the machine-readable comparison instead of the table "
        "(to PATH, or stdout when PATH is omitted); exit codes unchanged",
    )
    cp.set_defaults(func=_cmd_compare)

    lg = sub.add_parser(
        "ledger",
        help="run a paper program under the per-superstep load ledger and "
        "print which restriction (local m / global g) binds at each barrier",
    )
    lg.add_argument(
        "program",
        nargs="?",
        default=None,
        choices=["one-to-all", "broadcast", "summation", "route"],
        help="paper program to run (route honours --n/--epsilon); "
        "optional when summarizing a dump via --from",
    )
    lg.add_argument(
        "--model", choices=sorted(_LEDGER_MODELS), default="bsp-m",
        help="machine model; -m variants take the globally-limited half of "
        "the matched parameter pair, -g variants the locally-limited half",
    )
    lg.add_argument("--p", type=_positive_int, default=64)
    lg.add_argument("--m", type=_positive_int, default=8)
    lg.add_argument("--L", type=_positive_float, default=4.0)
    lg.add_argument("--n", type=int, default=4096, help="route workload flits")
    lg.add_argument("--epsilon", type=float, default=0.15)
    lg.add_argument("--seed", type=int, default=None)
    lg.add_argument(
        "--top", type=_positive_int, default=None, metavar="N",
        help="show only the N highest-charge supersteps",
    )
    lg.add_argument("--json", default=None, metavar="PATH",
                    help="write the columnar ledger dump to PATH")
    lg.add_argument(
        "--from", dest="from_file", default=None, metavar="FILE",
        help="summarize an existing ledger dump (written by --json or the "
        "--ledger observability flag) instead of running a program",
    )
    lg.set_defaults(func=_cmd_ledger)

    tp = sub.add_parser(
        "top",
        help="live terminal view of a serve daemon or sweep telemetry file",
    )
    tp.add_argument("--url", default=None, help="daemon base URL (TCP)")
    tp.add_argument("--uds", default=None, metavar="PATH",
                    help="daemon Unix-domain socket path")
    tp.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="tail a sweep telemetry JSON instead of a daemon",
    )
    tp.add_argument("--interval", type=float, default=1.0,
                    help="refresh interval in seconds")
    tp.add_argument(
        "--once", action="store_true",
        help="print a single frame to stdout and exit (no curses)",
    )
    tp.set_defaults(func=_cmd_top)

    return parser


def _on_error_policy(text: str) -> str:
    """argparse ``type=`` of ``--on-error``: the policy string, unchanged,
    once :func:`repro.sweep.parse_on_error` accepts it."""
    from repro.sweep import parse_on_error

    try:
        parse_on_error(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_on_error_arg(sp: argparse.ArgumentParser) -> None:
    """Attach the sweep error policy (see repro.sweep.run_sweep)."""
    sp.add_argument(
        "--on-error",
        type=_on_error_policy,
        default="raise",
        metavar="POLICY",
        help='failing-trial policy: "raise" (abort, the default), "skip" '
        '(record + continue; exit code 3 when any trial was skipped), or '
        '"retry:N" (N extra attempts, then skip)',
    )


def _add_obs_args(sp: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags (see docs/observability.md)."""
    sp.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON (load at https://ui.perfetto.dev) "
        "plus a run manifest, and print the cost-attribution table",
    )
    sp.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the run's metrics registry as columnar JSON "
        "(plus a run manifest)",
    )
    sp.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="record the per-superstep load ledger (which restriction "
        "binds at each barrier) and write its columnar JSON dump; with "
        "--trace the ledger is also embedded as a Perfetto counter track",
    )


#: commands that build a matched (local, global) pair, whose gap is g = p/m
_MATCHED_PAIR_COMMANDS = frozenset({"measure", "schedule", "dynamic", "ledger"})


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _MATCHED_PAIR_COMMANDS and args.m > args.p:
        parser.error(f"{args.command}: --m ({args.m}) must not exceed --p "
                     f"({args.p}), since the gap g = p/m must be >= 1")
    with _observe(args):
        return args.func(args)
