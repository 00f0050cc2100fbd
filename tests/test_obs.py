"""Tests for the unified observability layer (``repro.obs``).

The layer's contract has three legs, each pinned here:

* **disabled = free and invisible** — with no tracer/registry installed
  (the default), every instrumented layer produces bit-identical model
  times to a build without the hooks;
* **enabled = reconcilable** — traced span durations sum exactly to the
  engine's cost accounting (superstep spans vs ``RunResult.time``, round
  spans vs ``TransportResult.time``), and the exported Chrome trace is
  valid ``trace_event`` JSON whose model-time events reproduce the run's
  cost breakdown;
* **mergeable** — metrics, ledgers and span trees aggregated across sweep
  workers (``jobs=N``) are bit-identical to the serial run (``jobs=1``).

The load-ledger leg additionally pins the paper-level claim: the ledger's
per-superstep ``binding`` column says which restriction — the local
per-processor limit ``g·h`` or the global aggregate limit ``f(m)`` —
priced each barrier, its summed charges reconcile exactly with the
model's :class:`~repro.core.costs.CostBreakdown` on every model, and the
verdict genuinely *disagrees* between locally-limited and
globally-limited twin machines on workloads the paper separates.
"""

import json

import numpy as np
import pytest

from repro import BSPg, BSPm, MachineParams, QSMg, QSMm, SelfSchedulingBSPm
from repro.algorithms import broadcast, one_to_all, summation
from repro.faults import FaultPlan
from repro.faults.chaos import chaos_trial
from repro.obs import (
    LoadLedger,
    MetricsRegistry,
    Tracer,
    active_ledger,
    active_metrics,
    active_tracer,
    binding_of,
    build_manifest,
    chrome_trace,
    compare_bench,
    compare_files,
    cost_attribution_table,
    ledger_scope,
    ledger_table,
    manifest_path,
    metrics_scope,
    prometheus_exposition,
    tracing,
    write_chrome_trace,
)
from repro.obs.compare import classify
from repro.obs.metrics import Histogram
from repro.scheduling import route_reliable, unbalanced_send
from repro.scheduling.execute import compile_schedule, execute_schedule
from repro.sweep import TELEMETRY_SCHEMA_VERSION, SweepSpec, run_sweep
from repro.workloads import uniform_random_relation


def _machine(p=64, m=8, L=4.0, plan=None):
    machine = BSPm(MachineParams(p=p, m=m, L=L))
    if plan is not None:
        machine.inject_faults(plan)
    return machine


def _routed_run(tracer=None):
    """The small routing profile used throughout: deterministic model time."""
    rel = uniform_random_relation(32, 2_000, seed=0)
    sched = unbalanced_send(rel, 8, 0.2, seed=1)
    machine = _machine(p=32, m=8, L=1.0)
    if tracer is None:
        return execute_schedule(machine, sched)
    with tracing(tracer):
        return execute_schedule(machine, sched)


class TestTracerCore:
    def test_begin_end_nesting(self):
        tr = Tracer()
        outer = tr.begin("outer", cat="a")
        inner = tr.begin("inner", cat="b")
        assert inner.parent == outer.index
        tr.end(inner)
        tr.end(outer, model_dur=5.0, extra=1)
        assert outer.model_dur == 5.0 and outer.args["extra"] == 1
        assert outer.wall_dur >= 0.0 and not tr._stack

    def test_end_tolerates_open_children(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("leaked-child")
        tr.end(outer)  # must pop past the open child
        assert not tr._stack

    def test_add_parents_to_stack_top(self):
        tr = Tracer()
        with tr.span("parent"):
            leaf = tr.add("leaf", model_start=0.0, model_dur=1.0)
        assert leaf.parent == tr.spans[0].index
        assert tr.children(tr.spans[0]) == [leaf]

    def test_find_filters(self):
        tr = Tracer()
        tr.add("a", cat="x")
        tr.add("b", cat="y")
        tr.add("a", cat="y")
        assert len(tr.find(cat="y")) == 2
        assert len(tr.find(cat="y", name="a")) == 1

    def test_tracing_scope_restores_previous(self):
        assert active_tracer() is None
        with tracing() as outer:
            assert active_tracer() is outer
            with tracing() as inner:
                assert active_tracer() is inner
            assert active_tracer() is outer
        assert active_tracer() is None


class TestDisabledIdentity:
    def test_hooks_default_off(self):
        assert active_tracer() is None
        assert active_metrics() is None

    def test_engine_model_time_bit_identical(self):
        plain = _routed_run().time
        traced_result = _routed_run(tracer=Tracer())
        assert traced_result.time == plain

    def test_broadcast_bit_identical(self):
        plain = broadcast(_machine(), 1).time
        with tracing():
            traced = broadcast(_machine(), 1).time
        assert traced == plain

    def test_reliable_route_bit_identical(self):
        def run():
            rel = uniform_random_relation(32, 1_000, seed=3)
            machine = _machine(p=32, m=8, L=1.0, plan=FaultPlan(seed=5, drop_rate=0.2))
            return route_reliable(machine, rel, seed=4)

        plain = run()
        with tracing(), metrics_scope():
            traced = run()
        assert traced.time == plain.time
        assert traced.rounds == plain.rounds
        assert traced.retried == plain.retried


class TestSpanReconciliation:
    def test_superstep_spans_sum_to_run_time(self):
        tr = Tracer()
        res = _routed_run(tracer=tr)
        supersteps = tr.find(cat="superstep")
        assert len(supersteps) == len(res.records)
        assert sum(s.model_dur for s in supersteps) == res.time

    def test_run_span_covers_the_run(self):
        tr = Tracer()
        res = _routed_run(tracer=tr)
        (run_span,) = tr.find(cat="engine", name="run")
        assert run_span.model_dur == res.time
        assert run_span.args["supersteps"] == len(res.records)
        # every superstep span is a child of the run span
        for s in tr.find(cat="superstep"):
            assert s.parent == run_span.index

    def test_superstep_args_carry_the_breakdown(self):
        tr = Tracer()
        res = _routed_run(tracer=tr)
        for span, rec in zip(tr.find(cat="superstep"), res.records):
            assert span.args["cost"] == rec.cost
            b = rec.breakdown
            for comp in ("work", "local_band", "global_band", "latency", "contention"):
                assert span.args[comp] == getattr(b, comp)
            assert span.args["dominant"] == b.dominant()

    def test_engine_phases_are_walled(self):
        # one wall-clock fused_superstep phase span per barrier
        tr = Tracer()
        _routed_run(tracer=tr)
        phases = tr.find(cat="phase")
        assert {s.name for s in phases} == {"fused_superstep"}
        for s in phases:
            assert s.model_dur is None and s.wall_dur >= 0.0

    def test_proc_spans_record_stragglers(self):
        tr = Tracer()
        with tracing(tr):
            broadcast(_machine(p=8, m=4, L=2.0), 1)
        procs = tr.find(cat="proc")
        assert procs, "expected per-processor spans for p <= PROC_TRACK_LIMIT"
        assert all(s.track.startswith("proc ") for s in procs)

    def test_execute_schedule_span_present(self):
        tr = Tracer()
        _routed_run(tracer=tr)
        (bridge,) = tr.find(cat="scheduling", name="execute_schedule")
        assert bridge.args["flits"] == 2_000

    def test_sequential_runs_share_one_model_axis(self):
        tr = Tracer()
        with tracing(tr):
            a = broadcast(_machine(), 1)
            b = broadcast(_machine(), 1)
        assert tr.model_clock == a.time + b.time
        runs = tr.find(cat="engine", name="run")
        assert runs[1].model_start == runs[0].model_start + runs[0].model_dur

    def test_run_spans_carry_each_run_time_exactly(self):
        # once earlier runs have advanced the tracer's clock, a difference
        # of two clock readings drifts from RunResult.time in the last
        # bits; the run span carries the run's own summed costs instead
        def machines(p):
            return [_machine(p=p, m=8, L=4.0 + 0.37 * k) for k in range(6)]

        compiled = _compiled_route(p=16, m=8)
        with tracing() as tr:
            live = [summation(mach, list(range(64)))[0] for mach in machines(64)]
            replayed = compiled.replay_batch(machines(16))
        runs = tr.find(cat="engine", name="run")
        assert [s.args["path"] for s in runs] == ["loop"] * 6 + ["replay"] * 6
        for span, res in zip(runs, live + replayed, strict=True):
            assert span.model_dur == res.time
            assert span.args["supersteps"] == len(res.records)


def _observer(kind):
    """A fresh scope for one of the three observers, by name."""
    return {"tracer": tracing, "metrics": metrics_scope, "ledger": ledger_scope}[kind]()


def _ledger_rows(ledger):
    dump = ledger.to_dict()
    return dump["runs"], dump["columns"], dump["proc_columns"]


def _compiled_route(p, m):
    """The compiled routing superstep of a small uniform relation."""
    rel = uniform_random_relation(p, 40 * p, seed=2)
    return compile_schedule(unbalanced_send(rel, m, 0.2, seed=3))


class TestObservedReplay:
    """Looking never changes the path: an observed replay runs the same
    pass as an unobserved one and feeds the observers afterwards."""

    @pytest.mark.parametrize("observer", ["tracer", "metrics", "ledger"])
    def test_execute_schedule_replays_under_every_observer(self, observer, monkeypatch):
        from repro.core.engine import Machine

        rel = uniform_random_relation(32, 2_000, seed=0)
        sched = unbalanced_send(rel, 8, 0.2, seed=1)
        plain = execute_schedule(_machine(p=32, m=8, L=1.0), sched)
        with ledger_scope() as live:
            execute_schedule(_machine(p=32, m=8, L=1.0), sched, audit=True)

        def live_loop(*args, **kwargs):
            raise AssertionError("an observer sent execute_schedule to the live loop")

        monkeypatch.setattr(Machine, "run", live_loop)
        with _observer(observer) as installed:
            res = execute_schedule(_machine(p=32, m=8, L=1.0), sched)
        assert res.time == plain.time
        for got, want in zip(res.records, plain.records, strict=True):
            assert (got.cost, got.breakdown, got.stats) == (
                want.cost, want.breakdown, want.stats)
        if observer == "ledger":
            assert _ledger_rows(installed) == _ledger_rows(live)
            assert res.ledger.charges == [r.cost for r in res.records]

    def test_replay_batch_observes_like_sequential_replays(self, monkeypatch):
        from repro.core.batched import replay_batch

        compiled = _compiled_route(p=16, m=4)
        grid = [(m, L) for m in (2, 4, 8) for L in (1.0, 3.0)]

        def machines():
            return [_machine(p=16, m=m, L=L) for m, L in grid]

        def observed(run):
            with tracing() as tr, metrics_scope() as reg, ledger_scope() as book:
                results = run()
            spans = [
                (s.name, s.cat, s.track, s.parent, s.model_start, s.model_dur, s.args)
                for s in tr.spans
            ]
            return results, spans, reg.to_dict(), _ledger_rows(book)

        priced = []
        price_batch = BSPm._price_batch

        def counting(self, record, batch):
            priced.append(len(batch))
            return price_batch(self, record, batch)

        monkeypatch.setattr(BSPm, "_price_batch", counting)
        batched, *batched_obs = observed(lambda: replay_batch(compiled, machines()))
        assert priced == [len(grid)]
        sequential, *sequential_obs = observed(
            lambda: [compiled.replay(mach) for mach in machines()])
        assert batched_obs == sequential_obs
        for bat, seq in zip(batched, sequential, strict=True):
            assert bat.ledger.charges == seq.ledger.charges == [
                r.cost for r in seq.records]

    def test_replay_run_span_names_its_path(self):
        tr = Tracer()
        _routed_run(tracer=tr)
        with tracing(tr):
            broadcast(_machine(), 1)
        assert [s.args["path"] for s in tr.find(cat="engine", name="run")] == [
            "replay", "loop"]


class TestTransportSpans:
    @pytest.fixture(scope="class")
    def traced_transport(self):
        tr = Tracer()
        reg = MetricsRegistry()
        rel = uniform_random_relation(32, 1_000, seed=3)
        machine = _machine(p=32, m=8, L=1.0, plan=FaultPlan(seed=5, drop_rate=0.2))
        with tracing(tr), metrics_scope(reg):
            result = route_reliable(machine, rel, seed=4)
        return tr, reg, result

    def test_round_spans_match_protocol(self, traced_transport):
        tr, _, result = traced_transport
        rounds = tr.find(cat="transport")
        names = [s.name for s in rounds if s.name.startswith("round")]
        assert len(names) == result.rounds
        assert names[0] == "round 0" and not rounds[0].args["retry"]

    def test_backoff_spans_occupy_model_time(self, traced_transport):
        tr, _, result = traced_transport
        backoffs = tr.find(cat="transport", name="backoff")
        assert sum(s.args["steps"] for s in backoffs) == result.backoff_steps
        # rounds + backoffs lay the whole protocol on one model axis
        assert tr.model_clock == result.time

    def test_transport_and_fault_counters(self, traced_transport):
        _, reg, result = traced_transport
        counters = reg.to_dict()["counters"]
        assert counters["transport.runs"] == 1.0
        assert counters["transport.rounds"] == result.rounds
        assert counters["transport.retried"] == result.retried
        assert counters["transport.dropped"] == result.dropped
        assert counters["faults.injected"] > 0
        assert counters["faults.dropped"] == result.dropped


class TestChromeTraceExport:
    """The ISSUE acceptance criterion: the exported file is valid Chrome
    ``trace_event`` JSON and its per-superstep span durations sum to the
    run's cost breakdown."""

    def test_exported_file_reconciles_with_costs(self, tmp_path):
        tr = Tracer()
        res = _routed_run(tracer=tr)
        path = tmp_path / "trace.json"
        write_chrome_trace(tr, str(path))

        doc = json.loads(path.read_text())  # must be valid JSON
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        for e in complete:
            assert {"pid", "tid", "name", "ts", "dur", "cat", "args"} <= set(e)
        # model-time pid: superstep durations reproduce the cost breakdown
        supersteps = [e for e in complete if e["cat"] == "superstep" and e["pid"] == 1]
        assert len(supersteps) == len(res.records)
        assert sum(e["dur"] for e in supersteps) == res.time
        total_breakdown = sum(rec.cost for rec in res.records)
        assert sum(e["dur"] for e in supersteps) == total_breakdown

    def test_tracks_become_threads(self, tmp_path):
        tr = Tracer()
        _routed_run(tracer=tr)
        doc = chrome_trace(tr)
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        ]
        assert "machine" in names
        assert any(n.startswith("proc ") for n in names)

    def test_cost_attribution_table_renders(self):
        tr = Tracer()
        res = _routed_run(tracer=tr)
        text = cost_attribution_table(tr, top=3)
        assert "cost attribution" in text and "dominant-component totals" in text
        # the same table can be built straight from the RunResult
        assert "dominant-component totals" in cost_attribution_table(res)


class TestMetrics:
    def test_instruments(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        h = reg.histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        dump = reg.to_dict()
        assert dump["counters"]["c"] == 3.5
        assert dump["gauges"]["g"] == 7.0
        assert dump["histograms"]["h"]["counts"] == [1, 1, 1]
        assert dump["histograms"]["h"]["sum"] == 55.5

    def test_histogram_bucket_edges(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(1.0)  # on-edge lands in the <= 1.0 bucket
        h.observe(10.0)
        assert h.counts == [1, 1, 0]
        assert h.mean == 5.5

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(1)
        a.gauge("last").set(1)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.counter("n").inc(2)
        b.gauge("last").set(2)
        b.histogram("h", bounds=(1.0,)).observe(5.0)
        a.merge(b.to_dict())
        dump = a.to_dict()
        assert dump["counters"]["n"] == 3.0
        assert dump["gauges"]["last"] == 2.0  # last write wins
        assert dump["histograms"]["h"]["counts"] == [1, 1]

    def test_merge_rejects_mismatched_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(b.to_dict())

    def test_metrics_scope_restores_previous(self):
        assert active_metrics() is None
        with metrics_scope() as reg:
            assert active_metrics() is reg
        assert active_metrics() is None


def _chaos_spec(trials=4):
    return SweepSpec(
        name="chaos",
        fn=chaos_trial,
        grid={"uniform": {}},
        trials=trials,
        common=dict(
            workload="uniform", p=16, n=300, m=8, L=1.0,
            alpha=1.2, epsilon=0.15,
            drop_rate=0.1, duplicate_rate=0.0, reorder_rate=0.0,
            corrupt_rate=0.0, stalls=(), crashes=(),
            max_rounds=32, backoff_base=1, audit=False,
        ),
        seed=7,
    )


class TestSweepObservability:
    def test_metrics_identical_across_job_counts(self):
        dumps = []
        for jobs in (1, 2):
            with metrics_scope() as reg:
                run_sweep(_chaos_spec(), jobs=jobs)
            dumps.append(reg.to_dict())
        assert dumps[0] == dumps[1]  # bit-identical, not approximately

    def test_serial_trial_spans(self):
        tr = Tracer()
        with tracing(tr):
            run_sweep(_chaos_spec(), jobs=1)
        (sweep_span,) = tr.find(cat="sweep")
        trials = tr.find(cat="trial")
        assert len(trials) == 4
        assert sweep_span.args["completed"] == 4
        for s in trials:
            assert s.parent == sweep_span.index
        # the worker-side run/superstep spans are spliced under each trial
        runs = tr.find(cat="engine", name="run")
        assert runs and all(s.parent is not None for s in runs)

    def test_pool_trial_spans_are_real(self):
        # pool workers trace their trials for real and ship the spans
        # back — nothing is synthesized, and the tree matches serial
        tr = Tracer()
        with tracing(tr):
            result = run_sweep(_chaos_spec(), jobs=2)
        trials = tr.find(cat="trial")
        assert len(trials) == 4
        assert not any(s.args.get("synthesized") for s in trials)
        assert {s.track for s in trials} == {
            f"worker {w}" for w in np.unique(result.workers)
        }
        # real worker-side spans arrived underneath every trial span
        for trial in trials:
            assert tr.children(trial), f"no spliced spans under {trial.name}"

    @staticmethod
    def _span_tree(tracer):
        """Order-independent span skeleton: (name, cat, model_dur) plus
        the same triple for the parent (wall times legitimately differ
        between serial and pool runs; model facts may not)."""

        def key(s):
            parent = tracer.spans[s.parent] if s.parent is not None else None
            return (
                s.name, s.cat, s.model_dur,
                None if parent is None else (parent.name, parent.cat),
            )

        return sorted(
            key(s) for s in tracer.spans
            if s.cat not in ("sweep",)  # the sweep span's wall args differ
        )

    def test_span_trees_identical_across_job_counts(self):
        trees = []
        for jobs in (1, 2):
            tr = Tracer()
            with tracing(tr):
                run_sweep(_chaos_spec(), jobs=jobs)
            trees.append(self._span_tree(tr))
        assert trees[0] == trees[1]

    def test_ledger_identical_across_job_counts(self):
        dumps = []
        ledgers = []
        for jobs in (1, 2):
            book = LoadLedger(per_proc=False)
            with ledger_scope(book):
                result = run_sweep(_chaos_spec(), jobs=jobs)
            dumps.append(book.to_dict(per_proc=False))
            ledgers.append(result.ledger)
        assert dumps[0] == dumps[1]  # bit-identical, not approximately
        assert ledgers[0] == ledgers[1] and ledgers[0] is not None

    def test_swept_trials_keep_per_proc_columns(self):
        # each trial's scratch ledger follows the installed ledger's
        # per_proc, so the per-cell sweep (batch off) dumps what the fused
        # pass dumps, per-processor counts included, at any job count
        from repro.experiments import pricing_ablation

        grid = dict(p=16, n=400, schedule_m=4, m_values=(4, 8), L_values=(1.0, 2.0))
        dumps = {}
        for batch in (True, False):
            for jobs in (1, 2):
                with ledger_scope(LoadLedger()) as book:
                    pricing_ablation(batch=batch, jobs=jobs, **grid)
                dumps[batch, jobs] = book.to_dict()
        rows = dumps[True, 1]["proc_columns"]["sent_by_proc"]
        assert len(rows) == 4 and all(isinstance(row, list) for row in rows)
        for dump in dumps.values():
            assert dump == dumps[True, 1]

    def test_telemetry_schema_and_seed(self):
        result = run_sweep(_chaos_spec(trials=2), jobs=1)
        tel = result.telemetry()
        assert tel["schema_version"] == TELEMETRY_SCHEMA_VERSION == 8
        assert tel["seed"] == 7
        assert tel["jobs"] == 1

    def test_telemetry_json_roundtrip(self, tmp_path):
        result = run_sweep(_chaos_spec(trials=2), jobs=1)
        path = tmp_path / "sweep.json"
        result.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 8 and doc["seed"] == 7
        assert len(doc["trial_columns"]["wall_s"]) == 2
        # no ledger installed -> the v5 block is present but null
        assert doc["ledger"] is None

    def test_telemetry_carries_ledger_block(self):
        book = LoadLedger(per_proc=False)
        with ledger_scope(book):
            result = run_sweep(_chaos_spec(trials=2), jobs=1)
        tel = result.telemetry()
        assert tel["ledger"]["supersteps"] == len(book)
        assert tel["ledger"]["charge"] == book.total_charge()


def _matched(p=64, m=8, L=4.0):
    return MachineParams.matched_pair(p=p, m=m, L=L)


def _five_models(p=64, m=8, L=4.0):
    """Every priced machine model, on its half of the matched pair."""
    local, global_ = _matched(p, m, L)
    return {
        "BSP(g)": BSPg(local),
        "BSP(m)": BSPm(global_),
        "QSM(g)": QSMg(local),
        "QSM(m)": QSMm(global_),
        "BSP(m) self-sched": SelfSchedulingBSPm(global_),
    }


def _table1_programs(p=64):
    return {
        "one-to-all": lambda mach: one_to_all(mach),
        "broadcast": lambda mach: broadcast(mach, 1),
        "summation": lambda mach: summation(mach, [1.0] * p)[0],
    }


class TestLoadLedger:
    def test_hook_default_off(self):
        assert active_ledger() is None

    def test_ledger_scope_restores_previous(self):
        with ledger_scope() as book:
            assert active_ledger() is book
        assert active_ledger() is None

    def test_disabled_model_time_bit_identical(self):
        plain = _routed_run().time
        with ledger_scope():
            booked = _routed_run().time
        assert booked == plain

    def test_charges_reconcile_on_every_model_and_program(self):
        # the ISSUE acceptance criterion: sum of per-superstep charges ==
        # the model's priced time, for all five models, on every Table-1
        # program — the ledger IS the CostBreakdown, re-read at the barrier
        for prog_name, run in _table1_programs().items():
            for model_name, machine in _five_models().items():
                book = LoadLedger()
                with ledger_scope(book):
                    res = run(machine)
                assert book.total_charge() == res.time, (
                    f"{prog_name} on {model_name}: ledger "
                    f"{book.total_charge()!r} != model {res.time!r}"
                )
                # the charge is the max-of-components rule, row by row
                cols = book.columns
                for i in range(len(book)):
                    assert cols["charge"][i] == max(
                        cols["work"][i], cols["local_band"][i],
                        cols["global_band"][i], cols["latency"][i],
                        cols["contention"][i],
                    )

    def test_routing_charges_reconcile(self):
        book = LoadLedger()
        with ledger_scope(book):
            res = _routed_run()
        assert book.total_charge() == res.time
        assert len(book) == len(res.records)

    def test_binding_matches_breakdown_dominant(self):
        book = LoadLedger()
        with ledger_scope(book):
            res = one_to_all(QSMm(_matched()[1]))
        for i, rec in enumerate(res.records):
            assert book.columns["binding"][i] == binding_of(rec.breakdown)

    def test_binding_disagrees_between_twin_models(self):
        # the paper's point: on a balanced h-relation the globally-limited
        # twin saturates f(m) while the locally-limited twin prices the
        # same barrier at g·h — the ledger must expose that disagreement
        from repro.workloads import balanced_h_relation

        local, global_ = _matched(p=32, m=4, L=1.0)
        rel = balanced_h_relation(32, 8, seed=0)
        sched = unbalanced_send(rel, 4, 0.2, seed=1)
        verdicts = {}
        for name, machine in (("local", BSPg(local)), ("global", BSPm(global_))):
            book = LoadLedger()
            with ledger_scope(book):
                execute_schedule(machine, sched)
            verdicts[name] = list(book.columns["binding"])
        assert verdicts["local"] != verdicts["global"]
        assert "global" in verdicts["global"]
        assert all(v != "global" for v in verdicts["local"])

    def test_run_result_exposes_a_view(self):
        with ledger_scope() as book:
            a = one_to_all(QSMm(_matched()[1]))
            b = one_to_all(QSMm(_matched()[1]))
        assert a.ledger is not None and b.ledger is not None
        assert len(a.ledger) + len(b.ledger) == len(book)
        assert a.ledger.total_charge() == a.time
        assert b.ledger.total_charge() == b.time
        # the second view starts where the first stopped
        assert b.ledger.start == a.ledger.stop

    def test_per_proc_detail_recorded_for_small_p(self):
        book = LoadLedger()
        with ledger_scope(book):
            broadcast(_machine(p=16, m=4, L=1.0), 1)
        sent = book.proc_columns["sent_by_proc"]
        assert sent and all(row is not None for row in sent)
        for i, row in enumerate(sent):
            assert sum(row) == book.columns["sent"][i]

    def test_dump_roundtrip_and_merge(self):
        book = LoadLedger()
        with ledger_scope(book):
            one_to_all(QSMm(_matched()[1]))
        dump = json.loads(json.dumps(book.to_dict(), default=float))
        other = LoadLedger()
        other.merge_dump(dump)
        assert other.to_dict()["columns"] == book.to_dict()["columns"]
        assert other.summary() == book.summary()

    def test_ledger_table_renders(self):
        book = LoadLedger()
        with ledger_scope(book):
            one_to_all(QSMm(_matched()[1]))
        text = ledger_table(book)
        assert "binding" in text and "which restriction bound" in text
        # and straight from a JSON dump
        assert "binding" in ledger_table(book.to_dict())

    def test_chrome_trace_counter_track(self, tmp_path):
        tr = Tracer()
        book = LoadLedger()
        with tracing(tr), ledger_scope(book):
            _routed_run()
        doc = chrome_trace(tr, ledger=book)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "expected ledger counter events"
        names = {e["name"] for e in counters}
        assert names == {"ledger load", "ledger utilization"}
        loads = [e for e in counters if e["name"] == "ledger load"]
        assert max(e["args"]["h"] for e in loads) == max(book.columns["h"])
        thread_meta = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"] == "bandwidth ledger"
        ]
        assert len(thread_meta) == 1
        # without a ledger the trace has no counter track
        assert not [
            e for e in chrome_trace(tr)["traceEvents"] if e["ph"] == "C"
        ]


class TestPrometheusExposition:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests.ok").inc(3)
        reg.gauge("queue.depth").set(2)
        h = reg.histogram("round.window", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        return reg

    def test_shape_and_naming(self):
        text = prometheus_exposition(self._registry())
        lines = text.splitlines()
        assert text.endswith("\n")
        assert "serve_requests_ok_total 3" in lines
        assert "queue_depth 2" in lines
        assert "# TYPE serve_requests_ok_total counter" in lines
        assert "# TYPE round_window histogram" in lines

    def test_histogram_buckets_are_cumulative(self):
        text = prometheus_exposition(self._registry())
        assert 'round_window_bucket{le="1"} 1' in text
        assert 'round_window_bucket{le="10"} 2' in text
        assert 'round_window_bucket{le="+Inf"} 3' in text
        assert "round_window_sum 55.5" in text
        assert "round_window_count 3" in text

    def test_accepts_a_dump_dict(self):
        reg = self._registry()
        assert prometheus_exposition(reg.to_dict()) == prometheus_exposition(reg)

    def test_every_sample_line_parses(self):
        for line in prometheus_exposition(self._registry()).splitlines():
            if line and not line.startswith("#"):
                _name, _, value = line.rpartition(" ")
                float(value)


class TestTopRendering:
    def test_daemon_frame(self):
        from repro.obs.top import render_frame

        lines = render_frame({
            "source": "daemon http://x:1", "status": "serving",
            "queue_depth": 3, "in_flight": 1, "outstanding": 4,
            "budget_m": 64,
            "counters": {"serve.requests.ok": 7, "serve.shed.queue_full": 2},
            "rounds": [{"seq": 1, "window": 32, "overloaded_slots": 0,
                        "requests": 4, "queue_depth": 3, "cache_hits": 1}],
        })
        text = "\n".join(lines)
        assert "serving" in text and "queue    3" in text
        assert "vs m=64" in text and "ok 7" in text
        assert "shed: queue_full=2" in text

    def test_sweep_frame_with_ledger(self):
        from repro.obs.top import render_frame

        lines = render_frame({
            "source": "file s.json", "status": "chaos",
            "trials": 8, "jobs": 2, "elapsed_s": 0.5, "utilization": 0.9,
            "counters": {"cache.hits": 1},
            "workers": {"10": 0.2, "11": 0.3}, "steals": 1,
            "ledger": {"supersteps": 6, "charge": 100.0, "max_h": 9.0,
                       "charge_by_binding": {"local": 75.0, "global": 25.0},
                       "util_local_mean": 0.8, "util_global_mean": 0.5},
        })
        text = "\n".join(lines)
        assert "utilization 0.90" in text
        assert "steals=1" in text and "ledger: 6 supersteps" in text
        assert "75.0%" in text and "25.0%" in text

    def test_error_frame(self):
        from repro.obs.top import render_frame

        lines = render_frame({"source": "daemon x", "status": "unreachable",
                              "error": "ConnectionRefusedError: nope"})
        assert any("ConnectionRefusedError" in line for line in lines)

    def test_file_source_reads_telemetry(self, tmp_path):
        from repro.obs.top import FileSource

        result = run_sweep(_chaos_spec(trials=2), jobs=1)
        path = tmp_path / "tel.json"
        result.to_json(str(path))
        frame = FileSource(str(path)).frame()
        assert frame["status"] == "chaos"
        assert frame["trials"] == 2
        lines_missing = FileSource(str(tmp_path / "nope.json")).frame()
        assert lines_missing["status"] == "unreadable"


class TestCompare:
    def test_direction_classification(self):
        assert classify("routing.model_time") == "exact"
        assert classify("routing.msgs_per_s") == "higher"
        assert classify("telemetry.elapsed_s") == "lower"
        assert classify("trial_wall_s.mean") == "lower"
        # "_s" mid-word must NOT read as a seconds suffix
        assert classify("identical_to_serial") == "info"
        assert classify("routing.messages") == "info"

    def test_identical_records_pass(self):
        base = {"routing": {"model_time": 750.5, "msgs_per_s": 2e6}}
        cmp_ = compare_bench(base, json.loads(json.dumps(base)))
        assert cmp_.ok and not cmp_.regressions

    def test_throughput_regression_is_gated(self):
        base = {"msgs_per_s": 100.0}
        assert compare_bench(base, {"msgs_per_s": 96.0}).ok  # within 5%
        bad = compare_bench(base, {"msgs_per_s": 90.0})
        assert not bad.ok and bad.regressions[0].key == "msgs_per_s"

    def test_wall_clock_regression_is_gated(self):
        base = {"elapsed_s": 1.0}
        assert compare_bench(base, {"elapsed_s": 1.04}).ok
        assert not compare_bench(base, {"elapsed_s": 1.2}).ok

    def test_model_time_is_exact(self):
        base = {"model_time": 750.0}
        assert compare_bench(base, {"model_time": 750.0}).ok
        assert not compare_bench(base, {"model_time": 750.0001}).ok

    def test_missing_gated_key_is_a_regression(self):
        cmp_ = compare_bench({"msgs_per_s": 1.0}, {})
        assert not cmp_.ok and cmp_.regressions[0].status == "missing"

    def test_new_and_info_keys_never_gate(self):
        cmp_ = compare_bench({"p": 64}, {"p": 128, "extra": 1.0})
        assert cmp_.ok
        statuses = {r.key: r.status for r in cmp_.rows}
        assert statuses["p"] == "drift" and statuses["extra"] == "new"

    def test_compare_files_and_render(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"msgs_per_s": 100.0}))
        b.write_text(json.dumps({"msgs_per_s": 10.0}))
        cmp_ = compare_files(str(a), str(b), tolerance=0.05)
        assert not cmp_.ok
        assert "regression" in cmp_.render()


class TestManifest:
    def test_build_manifest_fields(self):
        manifest = build_manifest(
            command="chaos",
            params={"p": 64, "plan": FaultPlan()},
            seed="SeedSequence(entropy=7)",
            jobs=2,
            penalty="exponential",
            trace_path="t.json",
        )
        assert manifest["schema_version"] == 2
        assert manifest["command"] == "chaos"
        assert manifest["seed"] == "SeedSequence(entropy=7)"
        assert manifest["penalty_family"] == "exponential"
        assert "cache" not in manifest
        assert manifest["params"]["p"] == 64
        assert isinstance(manifest["params"]["plan"], str)  # repr-coerced
        json.dumps(manifest)  # JSON-serializable end to end

    def test_manifest_path_convention(self):
        assert manifest_path("out/trace.json") == "out/trace.json.manifest.json"


class TestCLI:
    def test_profile_top_rejects_nonpositive(self, capsys):
        from repro.harness import main

        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["profile", "route", "--top", bad])
            assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_chaos_writes_trace_metrics_and_manifest(self, tmp_path, capsys):
        from repro.harness import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["chaos", "uniform", "--p", "16", "--n", "200", "--m", "8",
             "--seed", "7", "--drop-rate", "0.1",
             "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        assert any(e.get("cat") == "superstep" for e in doc["traceEvents"])
        assert any(e.get("cat") == "transport" for e in doc["traceEvents"])
        mdoc = json.loads(metrics.read_text())
        assert mdoc["counters"]["transport.runs"] == 1.0
        manifest = json.loads((tmp_path / "trace.json.manifest.json").read_text())
        assert manifest["command"] == "chaos" and manifest["seed"] == 7
        assert "cost attribution" in capsys.readouterr().out
        # the CLI scope must not leak an installed tracer into the process
        assert active_tracer() is None and active_metrics() is None

    def test_compare_cli_exit_codes(self, tmp_path, capsys):
        from repro.harness import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"routing": {"msgs_per_s": 100.0}}))
        b.write_text(json.dumps({"routing": {"msgs_per_s": 99.0}}))
        assert main(["compare", str(a), str(b)]) == 0
        b.write_text(json.dumps({"routing": {"msgs_per_s": 10.0}}))
        assert main(["compare", str(a), str(b)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_json_output(self, tmp_path, capsys):
        from repro.harness import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"routing": {"msgs_per_s": 100.0}}))
        b.write_text(json.dumps({"routing": {"msgs_per_s": 10.0}}))
        # exit codes unchanged; stdout is strict JSON
        assert main(["compare", str(a), str(b), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["regressions"] == 1
        assert doc["rows"][0]["status"] == "regression"
        out_path = tmp_path / "cmp.json"
        assert main(["compare", str(a), str(b), "--json", str(out_path)]) == 1
        assert json.loads(out_path.read_text())["ok"] is False

    def test_ledger_cli_runs_and_roundtrips(self, tmp_path, capsys):
        from repro.harness import main

        dump = tmp_path / "led.json"
        code = main(["ledger", "one-to-all", "--model", "qsm-m",
                     "--p", "64", "--m", "8", "--json", str(dump)])
        assert code == 0
        out = capsys.readouterr().out
        assert "binding" in out and "total charge" in out
        doc = json.loads(dump.read_text())
        assert doc["summary"]["supersteps"] == len(doc["columns"]["charge"])
        # --from re-renders the archived dump without running anything
        assert main(["ledger", "--from", str(dump)]) == 0
        assert "which restriction bound" in capsys.readouterr().out
        # no program and no --from is an error
        assert main(["ledger"]) == 2

    def test_ledger_observability_flag(self, tmp_path, capsys):
        from repro.harness import main

        led = tmp_path / "led.json"
        code = main(["measure", "--p", "16", "--m", "4", "--ledger", str(led)])
        assert code == 0
        doc = json.loads(led.read_text())
        assert doc["columns"]["charge"]
        manifest = json.loads((tmp_path / "led.json.manifest.json").read_text())
        assert manifest["ledger_path"] == str(led)
        assert active_ledger() is None  # scope did not leak
        assert "binding:" in capsys.readouterr().out

    def test_replayed_sweep_fills_the_ledger(self, tmp_path, capsys):
        from repro.harness import main

        pa, led = tmp_path / "pa.json", tmp_path / "led.json"
        assert main(["experiment", "pricing_ablation", "--json", str(pa),
                     "--ledger", str(led)]) == 0
        record = json.loads(pa.read_text())
        cells = record["cells"]
        charges = json.loads(led.read_text())["columns"]["charge"]
        assert len(cells) == 64
        assert charges == [c["model_time"] for c in cells]
        # the installed ledger observes the fused pass; it does not replace it
        assert record["batch"]["enabled"] is True

    def test_top_once_renders_telemetry_file(self, tmp_path, capsys):
        from repro.harness import main

        result = run_sweep(_chaos_spec(trials=2), jobs=1)
        path = tmp_path / "tel.json"
        result.to_json(str(path))
        assert main(["top", "--telemetry", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "trials 2" in out
        # exactly one source is required
        assert main(["top", "--once"]) == 2
