"""Tests for the fault-injection and resilience layer (repro.faults)."""

import numpy as np
import pytest

from repro import BSPm, MachineParams, ProgramError, RunAborted
from repro.faults import (
    AuditViolation,
    CorruptedPayload,
    CrashSpec,
    FaultInjector,
    FaultPlan,
    StallSpec,
    TransportError,
    audit_record,
    is_corrupted,
    reliable_route,
)
from repro.scheduling import route, route_reliable, unbalanced_send
from repro.scheduling.execute import compile_schedule, execute_schedule
from repro.workloads import build_relation, uniform_random_relation
from tests.barrier_columns import barrier_columns, replay_columns


def make_machine(p=16, m=4, L=2.0):
    return BSPm(MachineParams(p=p, m=m, L=L))


def ring_program(ctx, rounds):
    total = 0
    for _ in range(rounds):
        ctx.send((ctx.pid + 1) % ctx.nprocs, payload=1)
        yield
        total += len(ctx.receive())
    return total


class TestFaultPlanValidation:
    def test_rates_validated(self):
        for field in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            with pytest.raises(ValueError, match=field):
                FaultPlan(**{field: 1.5})
            with pytest.raises(ValueError, match=field):
                FaultPlan(**{field: -0.1})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StallSpec(pid=-1, start=0)
        with pytest.raises(ValueError):
            CrashSpec(pid=0, start=0, duration=0)

    def test_null_plan(self):
        assert FaultPlan().is_null
        assert not FaultPlan(drop_rate=0.1).is_null
        assert not FaultPlan(stalls=(StallSpec(pid=0, start=0),)).is_null

    def test_lists_canonicalized_to_tuples(self):
        plan = FaultPlan(stalls=[StallSpec(pid=0, start=0)])
        assert isinstance(plan.stalls, tuple)


class TestCorruption:
    def test_is_corrupted(self):
        assert is_corrupted(CorruptedPayload("x"))
        assert is_corrupted(-3)
        assert is_corrupted(np.int64(-1))
        assert not is_corrupted(0)
        assert not is_corrupted(7)
        assert not is_corrupted("x")

    def test_integer_columns_bitflipped_negative(self):
        # ~x < 0 for every x >= 0: the transport's checksum analog
        for x in (0, 1, 2**40):
            assert ~np.int64(x) < 0


class TestBitIdenticalDisabledPath:
    """Acceptance criterion: drop-rate 0 must be bit-identical to a run
    without the fault layer — same time, costs, stats, and inboxes."""

    def test_null_plan_run_identical(self):
        base = make_machine(p=8, m=4).run(ring_program, args=(4,))
        faulted = make_machine(p=8, m=4)
        faulted.inject_faults(FaultPlan(seed=123))  # seed alone ≠ faults
        res = faulted.run(ring_program, args=(4,))
        assert res.time == base.time
        assert res.results == base.results
        assert len(res.records) == len(base.records)
        for a, b in zip(res.records, base.records):
            assert a.cost == b.cost
            assert a.stats == b.stats
            assert a.breakdown == b.breakdown

    def test_null_plan_routing_identical(self):
        rel = uniform_random_relation(16, 600, seed=1)
        sched = unbalanced_send(rel, 4, 0.2, seed=2)
        base = execute_schedule(make_machine(), sched)
        faulted = make_machine()
        faulted.inject_faults(FaultPlan())
        res = execute_schedule(faulted, sched)
        assert res.time == base.time
        for mine, ref in zip(res.results, base.results):
            assert np.array_equal(np.sort(mine), np.sort(ref))

    def test_detach_injector(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan(drop_rate=0.5))
        assert mach.fault_injector is not None
        mach.inject_faults(None)
        assert mach.fault_injector is None


class TestInjectorDeterminism:
    def _batch(self, n=200, p=16, seed=0):
        rng = np.random.default_rng(seed)
        rel = uniform_random_relation(p, n, seed=int(rng.integers(1 << 30)))
        sched = unbalanced_send(rel, 4, 0.2, seed=1)
        # the batch a replay of the schedule prices (its record releases it)
        return compile_schedule(sched).batch

    def test_same_plan_same_faults(self):
        batch = self._batch()
        plan = FaultPlan(seed=9, drop_rate=0.2, duplicate_rate=0.1)
        d1, s1 = FaultInjector(plan).apply(batch, 0, 16)
        d2, s2 = FaultInjector(plan).apply(batch, 0, 16)
        assert s1 == s2
        assert np.array_equal(d1.src, d2.src)
        assert np.array_equal(d1.dest, d2.dest)

    def test_different_seed_different_faults(self):
        batch = self._batch()
        _, s1 = FaultInjector(FaultPlan(seed=1, drop_rate=0.3)).apply(batch, 0, 16)
        _, s2 = FaultInjector(FaultPlan(seed=2, drop_rate=0.3)).apply(batch, 0, 16)
        assert s1["fault_dropped"] != s2["fault_dropped"]

    def test_monotonic_clock_gives_fresh_draws_then_reset_rewinds(self):
        batch = self._batch()
        inj = FaultInjector(FaultPlan(seed=5, drop_rate=0.3))
        _, first = inj.apply(batch, 0, 16)
        _, second = inj.apply(batch, 0, 16)  # next barrier: fresh draws
        assert first != second
        inj.reset()
        _, again = inj.apply(batch, 0, 16)
        assert again == first

    def test_ledger_balances(self):
        batch = self._batch()
        inj = FaultInjector(
            FaultPlan(seed=3, drop_rate=0.2, duplicate_rate=0.15, corrupt_rate=0.1)
        )
        delivered, stats = inj.apply(batch, 0, 16)
        assert stats["fault_delivered"] == (
            stats["fault_injected"] - stats["fault_dropped"] + stats["fault_duplicated"]
        )
        assert delivered.n == stats["fault_delivered"]
        assert inj.totals["injected"] == batch.n


class TestStallAndCrash:
    def test_stall_freezes_then_resumes(self):
        base = make_machine(p=4, m=2, L=1.0).run(ring_program, args=(3,))
        mach = make_machine(p=4, m=2, L=1.0)
        mach.inject_faults(FaultPlan(stalls=(StallSpec(pid=0, start=1, duration=2),)))
        res = mach.run(ring_program, args=(3,))
        # the stalled processor still finishes its 3 rounds...
        assert res.results[0] is not None
        # ...but the run stretches past the fault-free superstep count
        assert len(res.records) > len(base.records)

    def test_crash_drops_inbound_messages(self):
        mach = make_machine(p=4, m=2, L=1.0)
        mach.inject_faults(FaultPlan(crashes=(CrashSpec(pid=1, start=0, duration=1),)))
        res = mach.run(ring_program, args=(1,))
        # pid 0 sends to pid 1, which is down at the barrier: message dropped
        rec = res.records[0]
        assert rec.stats["fault_dropped"] >= 1.0
        # a crashed processor is frozen too, so only 3 of 4 sends happen —
        # and pricing is on the SENT batch, so all 3 are still charged
        assert rec.stats["n"] == 3.0
        # pid 1's inbound message is gone for good: it resumes to an empty inbox
        assert res.results[1] == 0

    def test_all_stalled_does_not_end_run(self):
        # freezing every processor must extend the run, not break the loop
        mach = make_machine(p=2, m=2, L=1.0)
        mach.inject_faults(FaultPlan(stalls=(
            StallSpec(pid=0, start=0, duration=1),
            StallSpec(pid=1, start=0, duration=1),
        )))
        res = mach.run(ring_program, args=(1,))
        assert res.results == [1, 1]


class TestRunAborted:
    def test_max_supersteps_carries_partial(self):
        def forever(ctx):
            while True:
                ctx.send((ctx.pid + 1) % ctx.nprocs, payload=1)
                yield

        mach = make_machine(p=2, m=2)
        with pytest.raises(RunAborted) as excinfo:
            mach.run(forever, max_supersteps=5)
        err = excinfo.value
        assert err.reason == "max_supersteps"
        assert err.superstep == 5
        assert len(err.partial.records) == 5
        assert err.partial.time > 0

    def test_max_time_watchdog(self):
        def forever(ctx):
            while True:
                yield

        mach = make_machine(p=2, m=2)
        with pytest.raises(RunAborted) as excinfo:
            mach.run(forever, max_time=0.05)
        assert excinfo.value.reason == "max_time"
        assert excinfo.value.partial.records is not None

    def test_is_a_program_error(self):
        # existing handlers that catch ProgramError keep working
        assert issubclass(RunAborted, ProgramError)


class TestDeadline:
    """Absolute ``deadline=`` on ``Machine.run`` — the serve daemon's
    per-request deadline path."""

    def test_expired_deadline_aborts_before_superstep_0(self):
        """Regression: plain-function programs execute their bodies at
        construction time, so an already-expired deadline must abort
        *before* program construction — zero supersteps, zero user code."""
        import time

        ran = []

        def prog(ctx):  # plain function: body runs eagerly when built
            ran.append(ctx.pid)

        mach = make_machine(p=2, m=2)
        with pytest.raises(RunAborted) as excinfo:
            mach.run(prog, deadline=time.monotonic() - 1.0)
        err = excinfo.value
        assert err.reason == "deadline"
        assert err.superstep == 0
        assert err.partial.records == []
        assert ran == []  # no superstep body ever executed

    def test_deadline_aborts_mid_run(self):
        import time

        def forever(ctx):
            while True:
                yield

        mach = make_machine(p=2, m=2)
        with pytest.raises(RunAborted) as excinfo:
            mach.run(forever, deadline=time.monotonic() + 0.05)
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.partial.records is not None

    def test_earlier_constraint_names_the_reason(self):
        import time

        def forever(ctx):
            while True:
                yield

        mach = make_machine(p=2, m=2)
        # deadline far away, max_time close: the abort is a max_time abort
        with pytest.raises(RunAborted) as excinfo:
            mach.run(forever, max_time=0.05, deadline=time.monotonic() + 60)
        assert excinfo.value.reason == "max_time"
        # and the other way around
        with pytest.raises(RunAborted) as excinfo:
            mach.run(forever, max_time=60.0, deadline=time.monotonic() + 0.05)
        assert excinfo.value.reason == "deadline"

    def test_route_propagates_deadline(self):
        import time

        rel = uniform_random_relation(8, 400, seed=2)
        mach = make_machine(p=8, m=4)
        with pytest.raises(RunAborted) as excinfo:
            route(mach, rel, seed=0, deadline=time.monotonic() - 1.0)
        assert excinfo.value.reason == "deadline"

    def test_no_deadline_is_bit_identical(self):
        """Passing a generous deadline must not perturb the result."""
        import time

        rel = uniform_random_relation(8, 400, seed=2)
        plain, _ = route(make_machine(p=8, m=4), rel, seed=0)
        timed, _ = route(
            make_machine(p=8, m=4), rel, seed=0,
            deadline=time.monotonic() + 600,
        )
        assert plain.time == timed.time
        assert len(plain.records) == len(timed.records)


class TestAuditor:
    def test_clean_run_passes(self):
        mach = make_machine(p=8, m=4)
        res = mach.run(ring_program, args=(3,), audit=True)
        assert res.results == [3] * 8

    def test_faulted_run_passes(self):
        mach = make_machine(p=8, m=4)
        mach.inject_faults(FaultPlan(seed=1, drop_rate=0.3, duplicate_rate=0.2))
        mach.run(ring_program, args=(3,), audit=True)

    @staticmethod
    def _fake_procs(record):
        # inbox totals that satisfy flit conservation for the record's batch
        from types import SimpleNamespace

        return [SimpleNamespace(inbox=[None] * record.msg_batch.n)]

    def test_tampered_cost_detected(self):
        mach = make_machine(p=8, m=4)
        with barrier_columns() as columns:
            res = mach.run(ring_program, args=(1,))
        rec = columns[res.records[0]]
        rec.cost += 1.0  # break pricing purity
        with pytest.raises(AuditViolation, match="re-pricing"):
            audit_record(mach, rec, self._fake_procs(rec), None)

    def test_tampered_ledger_detected(self):
        mach = make_machine(p=8, m=4)
        mach.inject_faults(FaultPlan(seed=1, drop_rate=0.3))
        with barrier_columns() as columns:
            res = mach.run(ring_program, args=(1,))
        rec = columns[res.records[0]]
        assert "fault_injected" in rec.stats
        rec.stats["fault_dropped"] += 1.0
        with pytest.raises(AuditViolation, match="ledger"):
            audit_record(mach, rec, self._fake_procs(rec), None)

    def test_violation_is_assertion_error(self):
        assert issubclass(AuditViolation, AssertionError)


class TestReliableTransport:
    def test_clean_machine_single_round(self):
        mach = make_machine()
        rel = uniform_random_relation(16, 400, seed=3)
        res = reliable_route(mach, rel, seed=7, audit=True)
        assert res.rounds == 1
        assert res.exactly_once
        assert res.retried == 0 and res.dropped == 0
        assert res.time > res.fault_free_time  # the ack superstep is priced

    def test_exactly_once_under_heavy_chaos(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan(
            seed=11, drop_rate=0.25, duplicate_rate=0.1,
            reorder_rate=0.2, corrupt_rate=0.1,
        ))
        rel = uniform_random_relation(16, 400, seed=3)
        res = reliable_route(mach, rel, seed=7, audit=True)
        assert res.exactly_once
        assert res.delivered == rel.n
        assert res.rounds > 1
        assert res.retried > 0
        assert res.corrupted > 0

    def test_retries_priced_against_m(self):
        """No free re-injections: summing the injected-flit stat over the
        data supersteps equals rel.n + retried."""
        mach = make_machine()
        mach.inject_faults(FaultPlan(seed=11, drop_rate=0.2, duplicate_rate=0.05))
        rel = uniform_random_relation(16, 400, seed=3)
        res = reliable_route(mach, rel, seed=7)
        data_flits = sum(
            int(rec.stats.get("n", 0))
            for run in res.data_runs
            for rec in run.records
        )
        assert data_flits == rel.n + res.retried

    def test_deterministic_under_seed(self):
        def go():
            mach = make_machine()
            mach.inject_faults(FaultPlan(seed=4, drop_rate=0.2))
            rel = uniform_random_relation(16, 300, seed=5)
            return reliable_route(mach, rel, seed=6)

        a, b = go(), go()
        assert a.time == b.time
        assert a.rounds == b.rounds
        assert a.retried == b.retried
        assert a.dropped == b.dropped

    def test_transient_crash_recovered(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan(seed=1, crashes=(CrashSpec(pid=3, start=0),)))
        rel = uniform_random_relation(16, 400, seed=3)
        res = reliable_route(mach, rel, seed=7, audit=True)
        assert res.exactly_once
        assert res.dropped > 0  # the crashed processor's inbound traffic

    def test_backoff_charged_as_idle_supersteps(self):
        mach = make_machine(L=2.0)
        mach.inject_faults(FaultPlan(seed=11, drop_rate=0.3))
        rel = uniform_random_relation(16, 300, seed=3)
        res = reliable_route(mach, rel, seed=7, backoff_base=2)
        assert res.rounds > 1
        assert res.backoff_steps >= 2
        engine_time = sum(r.time for r in res.data_runs) + sum(
            r.time for r in res.ack_runs
        )
        # total time = engine supersteps + backoff at L each, exactly
        assert res.time == pytest.approx(engine_time + res.backoff_steps * 2.0)

    @pytest.mark.parametrize("kind", ["uniform", "zipf"])
    def test_round_zero_runs_the_routing_superstep(self, kind):
        # the transport's data rounds run the routing program's plan: on a
        # clean machine round 0 is route()'s superstep, column for column
        rel = build_relation(kind, 16, 400, 1.2, 3)
        with barrier_columns() as columns:
            got = reliable_route(make_machine(), rel, seed=7).data_runs[0]
        want, sched = route(make_machine(), rel, seed=7)
        assert got.time == want.time
        assert len(got.records) == len(want.records) == 1
        for rg, rw in zip(columns.of(got), replay_columns(compile_schedule(sched), want)):
            assert (rg.cost, rg.breakdown, rg.work) == (rw.cost, rw.breakdown, rw.work)
            assert list(rg.stats.items()) == list(rw.stats.items())
            for col in ("src", "dest", "size", "slot", "consecutive", "payload"):
                a, b = getattr(rg.msg_batch, col), getattr(rw.msg_batch, col)
                assert a.dtype == b.dtype and np.array_equal(a, b), col
        assert len(got.results) == len(want.results) == rel.p
        for a, b in zip(got.results, want.results):
            assert type(a) is type(b) and np.array_equal(a, b)

    def test_round_zero_is_fault_free_baseline(self):
        # pricing never depends on faults, so round 0's time equals the
        # same schedule's fault-free cost and overhead > 1 under loss
        mach = make_machine()
        mach.inject_faults(FaultPlan(seed=11, drop_rate=0.2))
        rel = uniform_random_relation(16, 400, seed=3)
        res = reliable_route(mach, rel, seed=7)
        assert res.fault_free_time == res.data_runs[0].time
        assert res.overhead > 1.0

    def test_retry_budget_exhaustion_raises(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan(seed=2, drop_rate=0.9))
        rel = uniform_random_relation(16, 200, seed=3)
        with pytest.raises(TransportError) as excinfo:
            reliable_route(mach, rel, seed=7, max_rounds=2)
        err = excinfo.value
        assert err.pending.size > 0
        assert err.result.rounds == 2
        assert err.result.delivered < rel.n

    def test_rejects_shared_memory_machine(self):
        from repro import QSMm

        mach = QSMm(MachineParams(p=4, m=2))
        rel = uniform_random_relation(4, 20, seed=0)
        with pytest.raises(ValueError, match="point-to-point"):
            reliable_route(mach, rel)

    def test_empty_relation(self):
        rel = uniform_random_relation(16, 0, seed=0)
        res = reliable_route(make_machine(), rel)
        assert res.n == 0 and res.rounds == 0 and res.exactly_once


class TestSchedulingIntegration:
    def test_route_reliable_reexport(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan(seed=1, drop_rate=0.1))
        rel = uniform_random_relation(16, 200, seed=4)
        res = route_reliable(mach, rel, seed=5)
        assert res.exactly_once

    def test_plain_route_mismatch_mentions_reliable(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan(seed=1, drop_rate=0.3))
        rel = uniform_random_relation(16, 400, seed=4)
        with pytest.raises(ValueError, match="route_reliable"):
            route(mach, rel, seed=5)

    def test_plain_route_with_null_plan_unaffected(self):
        mach = make_machine()
        mach.inject_faults(FaultPlan())
        rel = uniform_random_relation(16, 400, seed=4)
        res, _ = route(mach, rel, seed=5)
        assert res.time > 0


class TestLossyDynamicProtocol:
    def test_zero_drop_matches_algorithm_b(self):
        from repro.dynamic import (
            AlgorithmBProtocol,
            LossyAlgorithmBProtocol,
            UniformAdversary,
            run_dynamic,
        )

        params = MachineParams(p=32, m=8, L=4.0)
        trace = UniformAdversary(p=32, w=16, alpha=2.0, beta=0.5).generate(400, seed=5)
        res_b = run_dynamic(AlgorithmBProtocol(params, w=16, alpha=2.0, seed=9), trace)
        res_l = run_dynamic(
            LossyAlgorithmBProtocol(params, w=16, alpha=2.0, drop_rate=0.0, seed=9),
            trace,
        )
        assert [b.service for b in res_b.batches] == [b.service for b in res_l.batches]

    def test_loss_inflates_service_time(self):
        from repro.dynamic import LossyAlgorithmBProtocol, UniformAdversary, run_dynamic

        params = MachineParams(p=32, m=8, L=4.0)
        trace = UniformAdversary(p=32, w=16, alpha=2.0, beta=0.5).generate(400, seed=5)

        def mean_service(q):
            proto = LossyAlgorithmBProtocol(
                params, w=16, alpha=2.0, drop_rate=q, seed=9
            )
            res = run_dynamic(proto, trace)
            svc = [b.service for b in res.batches if b.n > 0]
            return float(np.mean(svc))

        assert mean_service(0.2) > mean_service(0.0)

    def test_drop_rate_validated(self):
        from repro.dynamic import LossyAlgorithmBProtocol

        params = MachineParams(p=32, m=8, L=4.0)
        with pytest.raises(ValueError, match="drop_rate"):
            LossyAlgorithmBProtocol(params, w=16, alpha=2.0, drop_rate=1.5)


class TestChaosCLI:
    def test_chaos_subcommand_runs(self, capsys, tmp_path):
        from repro.harness import main

        out = tmp_path / "chaos.json"
        code = main([
            "chaos", "uniform", "--p", "16", "--n", "300", "--m", "4",
            "--seed", "3", "--drop-rate", "0.1", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "# seed = 3" in text
        assert "exactly once" in text
        import json

        report = json.loads(out.read_text())
        assert report["exactly_once"] is True
        assert report["seed"] == 3

    def test_top_level_seed_threads_through(self, capsys):
        from repro.harness import main

        code = main([
            "--seed", "42", "chaos", "uniform",
            "--p", "8", "--n", "100", "--m", "4",
        ])
        assert code == 0
        assert "# seed = 42" in capsys.readouterr().out

    def test_chaos_sweep_aggregates_trials(self, capsys, tmp_path):
        from repro.harness import main

        out = tmp_path / "chaos_sweep.json"
        code = main([
            "chaos", "uniform", "--p", "16", "--n", "300", "--m", "4",
            "--seed", "3", "--drop-rate", "0.1",
            "--trials", "3", "--jobs", "2", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "jobs = 2  trials = 3" in text
        assert "exactly-once rate" in text
        import json

        record = json.loads(out.read_text())
        assert record["summary"]["trials"] == 3
        assert record["summary"]["failures"] == 0
        assert len(record["trials"]) == 3
        assert record["telemetry"]["jobs"] == 2

    def test_chaos_sweep_accepts_route_verify(self):
        # regression: the sweep path routes the pinned profile through
        # build_relation, which must know the "route-verify" name
        from repro.faults.chaos import build_relation

        rel = build_relation("route-verify", 32, 400, 1.2, seed=0)
        assert rel.n == 400

    def test_chaos_sweep_deterministic_across_jobs(self):
        from repro.faults.chaos import chaos_trial
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            name="chaos", fn=chaos_trial, grid={"uniform": {}}, trials=3, seed=7,
            common=dict(
                workload="uniform", p=16, n=300, m=4, L=1.0, alpha=1.2,
                epsilon=0.2, drop_rate=0.1, duplicate_rate=0.0,
                reorder_rate=0.0, corrupt_rate=0.0, stalls=(), crashes=(),
                max_rounds=64, backoff_base=2, audit=False,
            ),
        )
        assert run_sweep(spec, jobs=2).results == run_sweep(spec, jobs=1).results
