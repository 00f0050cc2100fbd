"""Batched multi-trial execution: the bit-identity contract.

Gates — the same way fused≡legacy execution was gated when the fused path
landed:

* ``replay_batch(compiled, machines)[b]`` ≡ ``compiled.replay(machines[b])``
  for the message-passing models (costs, breakdowns, stats dicts incl. key
  order), plus its validation edges;
* ``machines[0]._price_batch(record, machines)[b]`` ≡
  ``machines[b]._price(record)`` for every record of live runs on the
  other models (QSM(m), QSM(g), LogP, two-level BSP, PRAM, PRAM(m)), with
  each record's columns captured at its barrier
  (:mod:`tests.barrier_columns`), and the model violations a single
  machine of a batch raises;
* ``compile_schedule(sched).replay_batch`` ≡ ``execute_schedule``;
* the slot-charge kernel ``slot_charge_stats_batched`` row-for-row
  against the ``core/costs.py`` formulas;
* ``stable_group_order`` against ``np.argsort(kind="stable")`` including
  the int64-overflow fallback boundary, and the arena freeze paths that
  now route through it;
* the ``pricing_ablation`` experiment: its fused pass equals the
  per-cell sweep, runs under every observer, and falls back to the
  sweep (skip or raise, per cell) when a cell is bad.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import (
    BSPg,
    BSPm,
    LogP,
    MachineParams,
    ModelViolation,
    PenaltyFunction,
    PolynomialPenalty,
    PRAM,
    PRAMm,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
    TwoLevelBSP,
    EXPONENTIAL,
    LINEAR,
)
from repro.core.arena import RequestArena, SendArena
from repro.core.batched import replay_batch
from repro.core.costs import slot_charges, superstep_charge
from repro.core.kernels import (
    _COMBINED_SORT_LIMIT,
    slot_charge_stats_batched,
    stable_group_order,
)
from repro.scheduling import naive_schedule, unbalanced_send
from repro.scheduling.execute import compile_schedule, execute_schedule
from repro.workloads import uniform_random_relation
from tests.barrier_columns import barrier_columns


class _SqrtPenalty(PenaltyFunction):
    """Custom subclass: its ``slot_charge_stats_batched`` rows come from
    the same ``PenaltyFunction.charges`` as the built-in families'."""

    name = "sqrt-test"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        return rho * np.sqrt(rho)


def _assert_prices_identical(records, machines):
    """Each record priced for the whole batch equals every machine's own
    ``_price`` of it: cost, breakdown and stats (values and key order)."""
    assert records
    for record in records:
        batched = machines[0]._price_batch(record, machines)
        assert len(batched) == len(machines)
        for mach, (cost, breakdown, stats) in zip(machines, batched):
            want_cost, want_breakdown, want_stats = mach._price(record)
            assert cost == want_cost
            assert breakdown == want_breakdown
            assert list(stats.keys()) == list(want_stats.keys())
            assert stats == want_stats


def _assert_runs_identical(seq, bat):
    """``bat`` must reproduce ``seq`` bit-for-bit (the replay contract)."""
    assert bat.time == seq.time
    assert len(bat.records) == len(seq.records)
    assert bat.results == seq.results
    for ra, rb in zip(seq.records, bat.records):
        assert rb.cost == ra.cost
        assert rb.breakdown == ra.breakdown
        assert list(rb.stats.keys()) == list(ra.stats.keys())
        assert rb.stats == ra.stats
        assert rb.work == ra.work


# ----------------------------------------------------------------------
# kernels: slot-charge rows vs the core/costs.py formulas
# ----------------------------------------------------------------------
class TestBatchedKernels:
    COUNTS = np.array([0, 1, 3, 7, 2, 9, 4, 0, 5], dtype=np.int64)

    def test_slot_charge_stats_batched_mixed_penalties(self):
        # repeated columns: LINEAR at m=2 four times in all, and two
        # equal-valued but distinct PolynomialPenalty(3.0) objects at m=3
        cubic = PolynomialPenalty(3.0)
        pens = [LINEAR, EXPONENTIAL, PolynomialPenalty(3.0), _SqrtPenalty(), LINEAR,
                LINEAR, cubic, EXPONENTIAL, LINEAR, cubic]
        m_col = [2, 4, 3, 2, 2, 2, 3, 2, 2, 5]
        comm, c_m_paper, span, overloaded, max_load = slot_charge_stats_batched(
            self.COUNTS, m_col, pens
        )
        assert span == float(self.COUNTS.size)
        assert max_load == int(self.COUNTS.max())
        for b, (m, pen) in enumerate(zip(m_col, pens)):
            charges = slot_charges(self.COUNTS, m, pen)
            assert comm[b] == float(np.sum(np.maximum(charges, 1.0)))
            assert c_m_paper[b] == superstep_charge(self.COUNTS, m, pen)
            assert int(overloaded[b]) == int(np.sum(self.COUNTS > m))
            # a trial's numbers are its batch of one's, bit for bit
            one = slot_charge_stats_batched(self.COUNTS, [m], [pen])
            assert comm[b].tobytes() == one[0][0].tobytes()
            assert c_m_paper[b].tobytes() == one[1][0].tobytes()
            assert overloaded[b] == one[3][0]

    def test_slot_charge_stats_batched_memory_follows_distinct_columns(self):
        # B = 256 trials over 4 distinct (penalty, m) columns: the kernel's
        # temporaries scale with the columns, not with a (B, span) matrix
        span, B = 20_000, 256
        counts = np.random.default_rng(7).integers(0, 12, size=span)
        columns = [(LINEAR, 4), (LINEAR, 8), (EXPONENTIAL, 4), (EXPONENTIAL, 8)]
        pens = [columns[b % 4][0] for b in range(B)]
        m_col = [columns[b % 4][1] for b in range(B)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = slot_charge_stats_batched(counts, m_col, pens)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * span * 8, peak  # below 8 float64 rows
        for b in range(4):
            one = slot_charge_stats_batched(counts, m_col[b:b + 1], pens[b:b + 1])
            assert out[0][b::4].tolist() == [one[0][0]] * (B // 4)
            assert out[1][b::4].tolist() == [one[1][0]] * (B // 4)
            assert out[3][b::4].tolist() == [one[3][0]] * (B // 4)

    def test_slot_charge_stats_batched_empty(self):
        comm, c_m_paper, span, overloaded, max_load = slot_charge_stats_batched(
            np.array([], dtype=np.int64), [2, 4], [LINEAR, EXPONENTIAL]
        )
        assert np.array_equal(comm, [0.0, 0.0])
        assert np.array_equal(c_m_paper, [0.0, 0.0])
        assert span == 0.0 and max_load == 0
        assert np.array_equal(overloaded, [0, 0])


# ----------------------------------------------------------------------
# stable_group_order: the argsort twin and its overflow fallback
# ----------------------------------------------------------------------
class TestStableGroupOrder:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 17, size=500).astype(np.int64)
        order = stable_group_order(keys, 16)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    def test_trivial_sizes(self):
        assert stable_group_order(np.array([], dtype=np.int64), 0).size == 0
        assert np.array_equal(
            stable_group_order(np.array([5], dtype=np.int64), 5), [0]
        )

    def test_overflow_fallback_matches(self):
        # a max_key big enough that key*n + i could overflow int64 forces
        # the argsort fallback; the permutation must not change
        keys = np.array([3, 1, 3, 0, 1, 2, 3, 0], dtype=np.int64)
        fast = stable_group_order(keys, 3)
        fallback = stable_group_order(keys, 2**62)
        assert np.array_equal(fallback, fast)
        assert np.array_equal(fallback, np.argsort(keys, kind="stable"))

    def test_fallback_boundary_arithmetic(self):
        # (max_key + 1) * n straddling the int64 limit: one below takes the
        # combined sort, at-or-above takes the fallback — same permutation
        keys = np.array([2, 0, 1, 0], dtype=np.int64)
        n = keys.size
        mk_fallback = -(-_COMBINED_SORT_LIMIT // n) - 1  # smallest mk that trips
        mk_fast = mk_fallback - 1
        assert (mk_fast + 1) * n < _COMBINED_SORT_LIMIT
        assert (mk_fallback + 1) * n >= _COMBINED_SORT_LIMIT
        expect = np.argsort(keys, kind="stable")
        assert np.array_equal(stable_group_order(keys, mk_fast), expect)
        assert np.array_equal(stable_group_order(keys, mk_fallback), expect)


# ----------------------------------------------------------------------
# arenas: the two freeze paths that now use stable_group_order
# ----------------------------------------------------------------------
def _send_batch(arena, pid, k, base):
    arena.append_batch(
        pid,
        dest=np.arange(k, dtype=np.int64) + base,
        size=None,
        slot=np.arange(k, dtype=np.int64),
        consecutive=False,
        payloads=np.arange(k, dtype=np.int64) * 10 + pid,
    )


class TestArenaReorder:
    def test_send_arena_out_of_order_freeze(self):
        # appends in pid order vs out of order must freeze identically:
        # the repaired batch is the legacy pid-major gather order
        ordered, shuffled = SendArena(4), SendArena(4)
        for pid in (0, 1, 2):
            _send_batch(ordered, pid, 3, base=pid * 100)
        for pid in (2, 0, 1):
            _send_batch(shuffled, pid, 3, base=pid * 100)
        a, b = ordered.freeze(), shuffled.freeze()
        for col in ("src", "dest", "size", "slot", "consecutive"):
            assert np.array_equal(getattr(b, col), getattr(a, col)), col
        assert np.array_equal(b.payload, a.payload)

    def test_request_arena_reorder_spans(self):
        ordered, shuffled = RequestArena(4), RequestArena(4)
        handles = {}
        for arena, pids in ((ordered, (0, 1)), (shuffled, (1, 0))):
            for pid in pids:
                h = f"h{pid}"
                handles.setdefault(pid, h)
                arena.append_batch_read(
                    pid,
                    addr=np.arange(2, dtype=np.int64) + pid * 10,
                    slot=np.arange(2, dtype=np.int64),
                    handle=h,
                )
        a = ordered.freeze(with_values=False)
        b = shuffled.freeze(with_values=False)
        assert np.array_equal(b.pid, a.pid)
        assert np.array_equal(b.addr, a.addr)
        assert np.array_equal(b.slot, a.slot)
        # handle spans must point at each pid's rows after the reorder
        spans_a = {h: (s, e) for h, s, e in a.handles}
        spans_b = {h: (s, e) for h, s, e in b.handles}
        assert spans_b == spans_a


# ----------------------------------------------------------------------
# replay_batch: message-passing models
# ----------------------------------------------------------------------
P, N, SCHED_M = 64, 4_000, 16


@pytest.fixture(scope="module")
def routing_compiled():
    rel = uniform_random_relation(P, N, seed=0)
    sched = unbalanced_send(rel, SCHED_M, 0.2, seed=1)
    return sched, compile_schedule(sched)


class TestReplayBatchMessagePassing:
    def test_bsp_m_grid_identity(self, routing_compiled):
        _, compiled = routing_compiled
        pens = [EXPONENTIAL, LINEAR, PolynomialPenalty(2.0), _SqrtPenalty()]
        machines = [
            BSPm(MachineParams(p=P, m=m, L=L), penalty=pens[i % len(pens)])
            for i, (m, L) in enumerate(
                (m, L) for m in (8, 16, 32, 64) for L in (1.0, 4.0, 16.0)
            )
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_bsp_g_identity(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [
            BSPg(MachineParams(p=P, g=g, L=L))
            for g in (1.0, 1.5, 2.0, 4.0)
            for L in (1.0, 8.0)
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_self_scheduling_identity(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [
            SelfSchedulingBSPm(MachineParams(p=P, m=m, L=L))
            for m in (8, 32, 128)
            for L in (1.0, 16.0)
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_empty_and_singleton_batches(self, routing_compiled):
        _, compiled = routing_compiled
        assert replay_batch(compiled, []) == []
        mach = BSPm(MachineParams(p=P, m=16, L=1))
        (only,) = replay_batch(compiled, [mach])
        _assert_runs_identical(
            compiled.replay(BSPm(MachineParams(p=P, m=16, L=1))), only
        )

    def test_quiet_superstep_identity(self):
        # an empty relation's superstep exercises the empty-histogram path
        compiled = compile_schedule(naive_schedule(uniform_random_relation(4, 0)))
        machines = [BSPm(MachineParams(p=4, m=m, L=L)) for m in (2, 4) for L in (1, 5)]
        for mach, bat in zip(machines, replay_batch(compiled, machines)):
            _assert_runs_identical(compiled.replay(mach), bat)
            assert len(bat.records) == 1
            assert bat.time == mach.params.L

    def test_mixed_model_classes_rejected(self, routing_compiled):
        _, compiled = routing_compiled
        with pytest.raises(ValueError, match="one model class"):
            replay_batch(
                compiled,
                [
                    BSPm(MachineParams(p=P, m=16, L=1)),
                    BSPg(MachineParams(p=P, g=1.0, L=1)),
                ],
            )

    def test_memory_kind_mismatch_rejected(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [QSMm(MachineParams(p=P, m=16)) for _ in range(2)]
        with pytest.raises(ValueError, match="message-passing"):
            replay_batch(compiled, machines)

    def test_too_few_processors_rejected(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [BSPm(MachineParams(p=P // 2, m=16, L=1)) for _ in range(2)]
        with pytest.raises(ValueError, match="processors"):
            replay_batch(compiled, machines)

    def test_fault_injector_rejected(self, routing_compiled):
        from repro.faults import FaultPlan

        _, compiled = routing_compiled
        bad = BSPm(MachineParams(p=P, m=16, L=1))
        bad.inject_faults(FaultPlan(seed=0, drop_rate=0.1))
        with pytest.raises(ValueError, match="fault injector"):
            replay_batch(compiled, [BSPm(MachineParams(p=P, m=16, L=1)), bad])

    def test_identity_under_a_tracer(self, routing_compiled):
        from repro.obs.tracer import install_tracer, uninstall_tracer

        _, compiled = routing_compiled
        machines = [BSPm(MachineParams(p=P, m=m, L=1)) for m in (8, 16)]
        install_tracer()
        try:
            batched = replay_batch(compiled, machines)
        finally:
            uninstall_tracer()
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(
                compiled.replay(BSPm(MachineParams(p=P, m=mach.params.m, L=1))), bat
            )


# ----------------------------------------------------------------------
# batch pricing of live records: shared-memory (QSM) models
# ----------------------------------------------------------------------
def _qsm_program(ctx, rounds, k, span):
    addrs = (ctx.pid * k + np.arange(k, dtype=np.int64)) % span
    values = np.arange(k, dtype=np.int64) + ctx.pid
    for r in range(rounds):
        ctx.write_many(addrs, values)
        yield
        ctx.read_many((addrs + (r + 1) * k) % span)
        yield


class TestReplayBatchSharedMemory:
    P, ROUNDS, K = 16, 3, 5

    @pytest.fixture(scope="class")
    def qsm_records(self):
        span = self.P * self.K
        recorder = QSMm(MachineParams(p=self.P, m=4))
        recorder.use_dense_memory(span)
        with barrier_columns() as columns:
            run = recorder.run(_qsm_program, args=(self.ROUNDS, self.K, span))
        return columns.of(run)

    def test_qsm_m_grid_identity(self, qsm_records):
        pens = [EXPONENTIAL, LINEAR, _SqrtPenalty()]
        machines = [
            QSMm(MachineParams(p=self.P, m=m), penalty=pens[i % len(pens)])
            for i, m in enumerate((2, 4, 8, 16, 4, 2))
        ]
        _assert_prices_identical(qsm_records, machines)

    def test_qsm_g_grid_identity(self, qsm_records):
        machines = [QSMg(MachineParams(p=self.P, g=g)) for g in (1.0, 1.5, 2.0, 3.0)]
        _assert_prices_identical(qsm_records, machines)


# ----------------------------------------------------------------------
# batch pricing of live records: LogP, two-level BSP, PRAM and PRAM(m)
# ----------------------------------------------------------------------
def _msg_program(ctx, rounds):
    # every processor but 0 sends to processor 0 in slot 0 (a peak of
    # p - 1 messages in transit to one processor), plus a ring of 2-flit
    # messages from slot 1
    for r in range(rounds):
        if ctx.pid:
            ctx.send(0, r, slot=0)
        ctx.send((ctx.pid + r + 1) % ctx.nprocs, r, size=2, slot=1)
        ctx.work(ctx.pid % 3)
        yield


def _pram_program(ctx, rounds, stride):
    # stride 1: one reader and one writer per location (EREW-legal);
    # stride 2: pairs of processors share each location
    for r in range(rounds):
        cell = ctx.pid // stride
        ctx.read((cell + r) % ctx.nprocs)
        ctx.write((cell + r + 1) % ctx.nprocs, ctx.pid)
        ctx.work(r)
        yield


def _pram_m_program(ctx, rom, rounds):
    yield from _pram_program(ctx, rounds, 1)


def _assert_violation_matches(records, machines, bad):
    """Priced in order, a batch with one violating machine raises that
    machine's own ``_price`` ``ModelViolation``."""
    with pytest.raises(ModelViolation) as seq:
        for record in records:
            bad._price(record)
    with pytest.raises(ModelViolation) as bat:
        for record in records:
            machines[0]._price_batch(record, machines)
    assert str(bat.value) == str(seq.value)


class TestReplayBatchOtherModels:
    P = 8

    @pytest.fixture(scope="class")
    def msg_records(self):
        recorder = LogP(MachineParams(p=self.P, g=1.0, o=0.5, L=8.0))
        with barrier_columns() as columns:
            run = recorder.run(_msg_program, args=(3,))
        return columns.of(run)

    @pytest.fixture(scope="class")
    def pram_m_records(self):
        recorder = PRAMm(MachineParams(p=self.P, m=16))
        with barrier_columns() as columns:
            run = recorder.run(_pram_m_program, args=(3,))
        return columns.of(run)

    def _pram_records(self, stride):
        with barrier_columns() as columns:
            run = PRAM(MachineParams(p=self.P)).run(_pram_program, args=(3, stride))
        return columns.of(run)

    def test_logp_mixed_params_identity(self, msg_records):
        machines = [
            LogP(MachineParams(p=self.P, g=g, o=o, L=L))
            for g, o, L in ((1.0, 0.5, 8.0), (2.0, 3.0, 16.0), (1.5, 0.0, 12.0))
        ]
        _assert_prices_identical(msg_records, machines)

    def test_logp_capacity_violation_matches_sequential(self, msg_records):
        bad = LogP(MachineParams(p=self.P, g=1.0, L=4.0))  # ceil(L/g) = 4 < 7
        ok = LogP(MachineParams(p=self.P, g=1.0, L=8.0))
        _assert_violation_matches(msg_records, [ok, bad], bad)

    def test_two_level_mixed_coefficients_identity(self, msg_records):
        machines = [
            TwoLevelBSP(MachineParams(p=p, L=L), g1=g1, g2=g2)
            for p, L, g1, g2 in (
                (self.P, 1.0, 1.0, 1.0),
                (self.P, 4.0, 0.5, 2.0),
                (2 * self.P, 2.0, 2.0, 0.25),
            )
        ]
        _assert_prices_identical(msg_records, machines)

    @pytest.mark.parametrize(
        "stride,rules", [(1, ("erew", "qrqw", "crcw", "qrqw")), (2, ("qrqw", "crcw"))]
    )
    def test_pram_mixed_rules_identity(self, stride, rules):
        machines = [PRAM(MachineParams(p=self.P), rule=rule) for rule in rules]
        _assert_prices_identical(self._pram_records(stride), machines)

    def test_erew_violation_matches_sequential(self):
        machines = [PRAM(MachineParams(p=self.P), rule=rule) for rule in ("crcw", "erew")]
        _assert_violation_matches(self._pram_records(2), machines, machines[1])

    def test_pram_m_mixed_m_identity(self, pram_m_records):
        machines = [PRAMm(MachineParams(p=self.P, m=m)) for m in (8, 16, 64)]
        _assert_prices_identical(pram_m_records, machines)

    def test_pram_m_address_violation_matches_sequential(self, pram_m_records):
        # the program addresses cells 0..p-1, so m = 4 is too small
        machines = [PRAMm(MachineParams(p=self.P, m=m)) for m in (16, 4)]
        _assert_violation_matches(pram_m_records, machines, machines[1])


# ----------------------------------------------------------------------
# schedule layer: compile_schedule / execute_schedule
# ----------------------------------------------------------------------
class TestScheduleBatch:
    def test_compile_schedule_replay_matches_execute(self, routing_compiled):
        sched, compiled = routing_compiled
        machine = BSPm(MachineParams(p=P, m=SCHED_M, L=2))
        direct = execute_schedule(BSPm(MachineParams(p=P, m=SCHED_M, L=2)), sched)
        replayed = compiled.replay(machine)
        assert replayed.time == direct.time
        assert len(replayed.records) == len(direct.records)
        for ra, rb in zip(direct.records, replayed.records):
            assert rb.cost == ra.cost
            assert rb.stats == ra.stats

    def test_replay_batch_matches_execute_schedule(self, routing_compiled):
        sched, _ = routing_compiled
        grid = [(m, L) for m in (8, 16, 32) for L in (1.0, 4.0)]
        machines = [BSPm(MachineParams(p=P, m=m, L=L)) for m, L in grid]
        batched = compile_schedule(sched).replay_batch(machines)
        for (m, L), bat in zip(grid, batched):
            direct = execute_schedule(BSPm(MachineParams(p=P, m=m, L=L)), sched)
            assert bat.time == direct.time
            for ra, rb in zip(direct.records, bat.records):
                assert rb.cost == ra.cost
                assert rb.stats == ra.stats

    def test_shared_memory_machine_rejected(self, routing_compiled):
        sched, _ = routing_compiled
        with pytest.raises(ValueError, match="point-to-point"):
            execute_schedule(QSMm(MachineParams(p=P, m=4)), sched)


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
_ABLATION_KW = dict(
    p=32, n=2_000, schedule_m=8, m_values=(4, 8, 16), L_values=(1.0, 4.0), seed=3,
)


def _observer_scopes():
    """One installed observer per case, as ``--trace``, ``--metrics`` and
    ``--ledger`` install them."""
    from repro.obs import (
        LoadLedger,
        MetricsRegistry,
        Tracer,
        ledger_scope,
        metrics_scope,
        tracing,
    )

    return {
        "tracer": lambda: tracing(Tracer()),
        "metrics": lambda: metrics_scope(MetricsRegistry()),
        "ledger": lambda: ledger_scope(LoadLedger()),
    }


class TestPricingAblationExperiment:
    def test_batch_on_off_identical(self, monkeypatch):
        import repro.core.batched
        from repro.experiments import pricing_ablation

        passes = []
        real = repro.core.batched.replay_batch

        def counted(compiled, machines):
            passes.append(len(machines))
            return real(compiled, machines)

        monkeypatch.setattr(repro.core.batched, "replay_batch", counted)
        off = pricing_ablation(batch=False, **_ABLATION_KW)
        off.pop("batch")
        assert passes == []
        runs = {"unobserved": pricing_ablation(batch=True, **_ABLATION_KW)}
        for name, scope in _observer_scopes().items():
            with scope():
                runs[name] = pricing_ablation(batch=True, **_ABLATION_KW)
        # looking does not change what runs: one fused pass in every case
        assert passes == [6] * len(runs)
        for name, on in runs.items():
            stats = on.pop("batch")
            assert on == off, name
            assert stats["enabled"] is True, name
            assert stats["amortization"] == 6.0, name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_falls_back_to_the_per_cell_sweep(self, jobs):
        from repro.experiments import pricing_ablation

        kw = dict(_ABLATION_KW, m_values=(4, 0, 16), jobs=jobs)
        out = pricing_ablation(on_error="skip", **kw)
        assert out["batch"] == {
            "enabled": True, "groups": 1, "batched_trials": 6,
            "dispatched_units": 1, "max_group": 6, "amortization": 6.0,
            "fallbacks": 1,
        }
        times = {c["point"]: c["model_time"] for c in out["cells"]}
        assert [k for k, t in times.items() if t is None] == [
            "L=1,g=2,m=0", "L=4,g=2,m=0",
        ]
        assert out["sweep_errors"]["skipped"] == 2
        good = pricing_ablation(batch=False, **dict(kw, m_values=(4, 16)))
        assert {c["point"]: c for c in good["cells"]} == {
            c["point"]: c for c in out["cells"] if c["model_time"] is not None
        }

    def test_unknown_model_fails_before_routing(self, monkeypatch):
        import repro.experiments
        from repro.experiments import pricing_ablation

        def no_sweep(*args, **kwargs):
            raise AssertionError("the per-cell sweep ran")

        monkeypatch.setattr(repro.experiments, "run_sweep", no_sweep)
        with pytest.raises(ValueError, match="unknown ablation model 'bogus'") as exc:
            pricing_ablation(model="bogus", **_ABLATION_KW)
        assert type(exc.value) is ValueError  # not a TrialExecutionError
        assert "self_scheduling" in str(exc.value)

    def test_failing_cell_raises_with_its_label(self):
        from repro.experiments import pricing_ablation
        from repro.sweep import TrialExecutionError

        kw = dict(_ABLATION_KW, m_values=(4, 0, 16))
        with pytest.raises(TrialExecutionError) as exc:
            pricing_ablation(on_error="raise", **kw)
        assert exc.value.label == "pricing_ablation[L=1,g=2,m=0:0]"

