"""Self-checks of the end-to-end benchmark (not collected by the tier-1 run).

Run from the repository root::

    python3 -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(E2E_DIR), str(E2E_DIR.parents[1] / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((E2E_DIR.parents[1] / "BENCHMARK.json").read_text())


# -- timing protocol ---------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail_percentile([float(i) for i in range(999)], 99) is None
    values = [float(i) for i in range(1000)]
    assert stats.tail_percentile(values, 99) == 989.0  # 10 samples above it
    assert stats.tail_percentile(values[:200], 95) == 189.0
    assert stats.tail_percentile([], 50) is None
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_summarize_quartiles():
    s = stats.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["median"], s["min"], s["max"], s["n"]) == (3.0, 1.0, 5.0, 5)
    assert s["iqr"] == s["q3"] - s["q1"] > 0


class _FakeWorkload(workloads.Workload):
    warmup, round_ops = 3, 250  # five rounds support a p99

    def __init__(self, fresh):
        super().__init__(0, None, {})
        self.fresh_per_round = fresh
        self.seen, self.reopened = [], 0

    def op(self, i):
        self.seen.append(i)
        self.record(i, [float(i)])

    def reopen(self):
        self.reopened += 1


@pytest.mark.parametrize("fresh", [False, True])
def test_rounds_are_fixed_work_and_fresh_rounds_warm_up_again(fresh):
    wl = _FakeWorkload(fresh)
    ph = run._phase(wl, 0.0, stats.MIN_ROUNDS)
    rounds = ph["rounds"]
    assert len(rounds) == stats.MIN_ROUNDS and [r.ops for r in rounds] == [250] * 5
    assert wl.reopened == (4 if fresh else 0)
    assert ph["warm_ops"] == 3 * (5 if fresh else 1)
    assert wl.seen == list(range(ph["warm_ops"] + 1250))  # every op index once
    assert ph["meas"].ops == 1250 and not ph["failed"]
    assert ph["digest"] == workloads.digest([0.0, 1.0, 2.0])
    assert set(run._timed(ph)) == set(run.TIMED_UNITS)


def test_setups_are_spread_over_the_rounds():
    wl = _FakeWorkload(False)
    wl.setup_time = lambda: float(len(wl.seen))  # ops run before this set-up
    setups = [wl.setup_time()]
    run._phase(wl, 0.0, stats.MIN_ROUNDS, setups)
    assert len(setups) == 1 + stats.MIN_ROUNDS
    assert setups == [0.0] + [3.0 + 250 * k for k in range(1, 6)]


def test_throughput_and_pool():
    a = stats.Measurement(records=[(0, 0.0, 1.0), (1, 1.0, 2.0)], next_index=2)
    b = stats.Measurement(records=[(5, 3.0, 3.5)], failed=[5], errors=["x"], next_index=6)
    assert a.throughput == 1.0
    pooled = stats.pool([a, b])
    assert (pooled.ops, pooled.failed, pooled.errors, pooled.next_index) == (3, [5], ["x"], 6)
    assert pooled.indices() == [0, 1, 5]


def test_op_failures_are_counted_not_raised():
    def op(i):
        if i % 2:
            raise ValueError("odd")

    meas = stats.run_fixed(op, 6, threads=2)
    assert meas.ops == 6 and sorted(meas.failed) == [1, 3, 5]


def test_clean_environment_clears_path_toggles():
    env, cleared = stats.clean_environment({
        "REPRO_FUSED": "0", "REPRO_SERVE_CHAOS_KILL_RATE": "0.5",
        "REPRO_CACHE_DIR": "/x", "PATH": "/bin",
    })
    assert env == {"REPRO_CACHE_DIR": "/x", "PATH": "/bin"}
    assert set(cleared) == {"REPRO_FUSED", "REPRO_SERVE_CHAOS_KILL_RATE"}


# -- spans -------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = _Clock()
    rec = spans.SpanRecorder(clock)
    outer = rec.begin("outer")
    clock.now = 1.0
    inner = rec.begin("inner")
    clock.now = 4.0
    rec.end(inner)
    inner2 = rec.begin("inner")
    clock.now = 6.0
    rec.end(inner2, units=3)
    clock.now = 10.0
    rec.end(outer)
    totals = rec.aggregate()
    assert totals["inner"] == {"calls": 2, "self_s": 5.0, "units": 3}
    assert totals["outer"]["self_s"] == 5.0
    assert rec.aggregate([(0.5, 3.0)]) == {
        "inner": {"calls": 1, "self_s": 3.0, "units": 0}}
    assert rec.aggregate([(-1.0, 0.5), (3.5, 5.0)])["inner"]["calls"] == 1


def test_spans_on_another_thread_are_not_children():
    clock = _Clock()
    rec = spans.SpanRecorder(clock)
    outer = rec.begin("outer")

    def worker():
        clock.now = 2.0
        frame = rec.begin("worker")
        clock.now = 5.0
        rec.end(frame)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    clock.now = 10.0
    rec.end(outer)
    totals = rec.aggregate()
    assert totals["outer"]["self_s"] == 10.0
    assert totals["worker"]["self_s"] == 3.0


@pytest.fixture
def fake_modules():
    base = types.ModuleType("e2e_fake_base")

    def f(x):
        return x + 1

    def h():
        return "h"

    class Machine:
        def run(self):
            return "ran"

    class Sub(Machine):
        pass

    base.f, base.h, base.Machine, base.Sub = f, h, Machine, Sub
    alias = types.ModuleType("e2e_fake_alias")
    alias.g = f  # ``from e2e_fake_base import f as g``
    sys.modules.update({base.__name__: base, alias.__name__: alias})
    yield base, alias
    for name in (base.__name__, alias.__name__):
        del sys.modules[name]


def test_install_wraps_aliases_and_tolerates_missing_names(fake_modules):
    base, alias = fake_modules
    original = base.f
    layers = {
        "fake.f": ("e2e_fake_base:f",),
        "fake.run": ("e2e_fake_base:Sub.run",),
        "fake.gone": ("e2e_fake_base:deleted", "no_such_module_e2e:f"),
        "fake.half": ("e2e_fake_base:h", "e2e_fake_base:also_deleted"),
    }
    rec = spans.SpanRecorder()
    uninstall, absent = spans.install(rec, layers)
    try:
        assert sorted(absent) == [
            "e2e_fake_base:also_deleted", "e2e_fake_base:deleted",
            "no_such_module_e2e:f",
        ]
        assert spans.absent_layers(absent, layers) == ["fake.gone"]
        assert base.f(1) == 2 and alias.g(2) == 3
        assert base.Sub().run() == "ran" and base.Machine().run() == "ran"
        assert base.h() == "h"
        calls = {k: v["calls"] for k, v in rec.aggregate().items()}
        assert calls == {"fake.f": 2, "fake.half": 1, "fake.run": 1}
        metrics = spans.layer_metrics(rec.aggregate(), 2, ["fake.gone"], layers)
        assert metrics["fake.gone.calls"] == 0.0 and metrics["fake.gone_us"] == 0.0
        assert metrics["fake.run.calls"] == 0.5
    finally:
        uninstall()
    assert base.f is original and alias.g is original
    assert "run" not in base.Sub.__dict__


# -- compare -----------------------------------------------------------------


def _result(workload, **values):
    return {"workload": workload, "metrics": {
        k: {"value": v, "unit": "x"} for k, v in values.items()}}


def test_compare_flags_only_metrics_beyond_their_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    ok, rss = bounds["success_rate"], bounds["peak_rss_mb"]
    base = _result("w", success_rate=1.0, peak_rss_mb=100.0, setup_s=1.0,
                   throughput_ops_s=5.0)
    new = {"workloads": {"w": _result(
        "w", success_rate=1.0 - ok / 2, peak_rss_mb=100.0 * (1 + 2 * rss),
        setup_s=0.5, throughput_ops_s=1.0)}}
    rows = {r["metric"]: r for r in compare.compare(base, new, BENCHMARK)}
    assert set(rows) == {"success_rate", "peak_rss_mb", "setup_s"}  # no per-layer rows
    assert [m for m, r in rows.items() if r["flagged"]] == ["peak_rss_mb"]
    assert rows["setup_s"]["worse_by"] == -0.5


def test_benchmark_lists_every_metric_the_runner_reports():
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert list(end_to_end) == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    bounds = [m["bound"] for m in end_to_end.values()]
    assert max(bounds) == end_to_end["setup_s"]["bound"]


# -- workloads ---------------------------------------------------------------


@pytest.fixture
def bench_env():
    env, _cleared = run.bench_environment()
    return env


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_reproduces_its_golden_digest(name, bench_env, tmp_path):
    golden = json.loads((E2E_DIR / "golden.json").read_text())
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path, bench_env)
    wl.open()
    try:
        warm = stats.run_fixed(wl.op, wl.warmup, threads=wl.threads)
        more = stats.run_fixed(wl.op, 2 * wl.threads, threads=wl.threads,
                               start_index=warm.next_index)
        assert warm.failed == more.failed == [] and wl.verify() == []
        assert wl.digest(range(wl.warmup)) == golden[name]
    finally:
        wl.close()


@pytest.mark.parametrize("name", ["sweep-ablation", "serve-cold"])
def test_traced_run_reports_every_layer_and_matches_untraced(name, bench_env, tmp_path):
    result = run.run_workload(name, 3, 0.5, True, env=bench_env, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["detail"]["digest"] == result["detail"]["traced_digest"]
    assert list(result["metrics"]) == list(run.per_layer_units())
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["bench.trace_overhead_ratio"] > 0
    if name == "sweep-ablation":
        assert values["core.batched.replay_batch.calls"] == 1.0
        assert values["sweep.batch.amortization"] == 256.0
        assert values["store.get.calls"] == 0.0
    else:
        assert values["serve.executor.run_scenario.calls"] == 1.0
        assert values["serve.cache.hit_ratio"] == 0.0
        assert values["core.batched.replay_batch.calls"] == 0.0
