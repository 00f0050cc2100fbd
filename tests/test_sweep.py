"""Tests for the parallel sweep engine: seed derivation, spec expansion,
pool-vs-serial bit-identity, worker-crash surfacing, telemetry."""

import json
import multiprocessing
import multiprocessing.connection
import os
import time

import numpy as np
import pytest

from repro.experiments import list_experiments, run_experiment
from repro.sweep import (
    SweepSpec,
    TrialExecutionError,
    grid_points,
    parse_on_error,
    resolve_jobs,
    run_sweep,
)
from repro.util.rng import (
    as_generator,
    derive_generator,
    derive_seed_sequence,
    describe_seed,
)
from repro.workloads import uniform_random_relation


# ---------------------------------------------------------------------------
# module-level trial functions (pool workers pickle them by reference)

def _double(x, seed):
    return 2 * x


def _draw(width, seed):
    return float(as_generator(seed).uniform(0.0, width))


def _record_seed(seed):
    return describe_seed(seed)


def _boom(x, seed):
    if x == 3:
        raise ValueError("injected trial failure")
    return x


#: per-process attempt counter for the flaky trial fn (retries happen in
#: the same process, so this is visible across attempts)
_FLAKY_CALLS = {}


def _flaky(x, seed):
    n = _FLAKY_CALLS.get(x, 0) + 1
    _FLAKY_CALLS[x] = n
    if n == 1:
        raise ValueError("flaky first attempt")
    return x


def _die(x, seed):
    if x == 3:
        import os

        os._exit(13)  # hard worker death, no traceback, no cleanup
    return x


def _exit_at_next_read(x, seed, delay):
    time.sleep(0.05)  # tasks are still pending when x=1 reports: its worker gets one
    if x == 1:
        from multiprocessing.connection import Connection

        def exit_worker(self, *args):
            time.sleep(delay)
            os._exit(9)

        # this worker exits at its next pipe read: after it has sent this
        # result, before it reads another task index
        Connection._recv_bytes = exit_worker
    return x


def _exit_mid_send(x, seed):
    if x == 1:
        import struct
        from multiprocessing.connection import Connection

        def cut_short(self, buf):
            # the length header promises one byte more than is ever sent
            os.write(self.fileno(), struct.pack("!i", len(buf) + 1) + bytes(buf))
            os._exit(9)

        Connection._send_bytes = cut_short
    return x


def _sweep_workers():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-sweep-worker-")]


class TestDeriveSeedSequence:
    def test_stable(self):
        a = derive_seed_sequence(7, "exp", "point", 2)
        b = derive_seed_sequence(7, "exp", "point", 2)
        assert a.entropy == b.entropy
        assert tuple(a.spawn_key) == tuple(b.spawn_key)
        assert np.array_equal(a.generate_state(4), b.generate_state(4))

    def test_distinct_paths_distinct_streams(self):
        paths = [("exp", "a", 0), ("exp", "a", 1), ("exp", "b", 0), ("other", "a", 0)]
        states = [tuple(derive_seed_sequence(0, *p).generate_state(4)) for p in paths]
        assert len(set(states)) == len(states)

    def test_component_boundaries_do_not_collide(self):
        # ("ab", "c") vs ("a", "bc") — each component hashes independently
        a = derive_seed_sequence(0, "ab", "c")
        b = derive_seed_sequence(0, "a", "bc")
        assert tuple(a.spawn_key) != tuple(b.spawn_key)

    def test_int_and_str_components_differ(self):
        a = derive_seed_sequence(0, "exp", 5)
        b = derive_seed_sequence(0, "exp", "5")
        assert tuple(a.spawn_key) != tuple(b.spawn_key)

    def test_nesting_extends_path(self):
        base = derive_seed_sequence(0, "exp")
        nested = derive_seed_sequence(base, "trial", 1)
        flat = derive_seed_sequence(0, "exp", "trial", 1)
        assert tuple(nested.spawn_key) == tuple(flat.spawn_key)

    def test_generator_root_rejected(self):
        with pytest.raises(TypeError, match="Generator"):
            derive_seed_sequence(np.random.default_rng(0), "exp")

    def test_float_component_rejected(self):
        with pytest.raises(TypeError, match="int or str"):
            derive_seed_sequence(0, 1.5)

    def test_derive_generator_matches_sequence(self):
        g = derive_generator(3, "exp", 0)
        h = np.random.default_rng(derive_seed_sequence(3, "exp", 0))
        assert g.integers(0, 1 << 30, 8).tolist() == h.integers(0, 1 << 30, 8).tolist()

    def test_describe_seed_replays(self):
        seq = derive_seed_sequence(11, "exp", "pt", 4)
        replayed = eval(describe_seed(seq), {"SeedSequence": np.random.SeedSequence})
        assert np.array_equal(seq.generate_state(4), replayed.generate_state(4))


class TestSweepSpec:
    def test_task_expansion_points_major(self):
        spec = SweepSpec(
            name="s", fn=_double, grid={"a": {"x": 1}, "b": {"x": 2}}, trials=3
        )
        tasks = spec.tasks()
        assert [(t.point, t.trial) for t in tasks] == [
            ("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("b", 2)
        ]
        assert [t.index for t in tasks] == list(range(6))
        assert tasks[0].label == "s[a:0]"

    def test_sequence_grid_gets_derived_keys(self):
        spec = SweepSpec(name="s", fn=_double, grid=[{"x": 1}, {"x": 2}])
        assert spec.point_keys == ["x=1", "x=2"]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(name="s", fn=_double, grid=[{"x": 1}, {"x": 1}])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(name="s", fn=_double, grid=[])

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            SweepSpec(name="s", fn=_double, grid=[{"x": 1}], trials=0)

    def test_task_seed_matches_expanded_tasks(self):
        spec = SweepSpec(name="s", fn=_record_seed, grid={"a": {}}, trials=2, seed=9)
        for task in spec.tasks():
            assert describe_seed(task.seed) == describe_seed(
                spec.task_seed(task.point, task.trial)
            )

    def test_common_params_merged_point_wins(self):
        spec = SweepSpec(
            name="s", fn=_double, grid={"a": {"x": 5}}, common={"x": 1}
        )
        assert spec.tasks()[0].params == {"x": 5}

    def test_grid_points_product(self):
        pts = grid_points(p=[64, 128], L=[1.0, 4.0])
        assert len(pts) == 4
        assert {"p": 64, "L": 4.0} in pts


class TestRunSweep:
    def test_serial_results_in_task_order(self):
        spec = SweepSpec(name="s", fn=_double, grid=[{"x": i} for i in range(5)])
        res = run_sweep(spec, jobs=1)
        assert res.results == [0, 2, 4, 6, 8]
        assert res.jobs == 1 and res.trials == 5

    def test_pool_identical_to_serial(self):
        spec = SweepSpec(
            name="s", fn=_draw, grid={"w": {"width": 10.0}}, trials=16, seed=3
        )
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=4)
        assert pooled.results == serial.results
        assert pooled.jobs == 4

    def test_auto_jobs(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        assert resolve_jobs(3) == 3
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)

    def test_single_task_short_circuits_pool(self):
        spec = SweepSpec(name="s", fn=_double, grid=[{"x": 4}])
        res = run_sweep(spec, jobs=8)
        assert res.results == [8]
        assert res.n_workers == 1

    def test_results_by_point(self):
        spec = SweepSpec(
            name="s", fn=_double, grid={"a": {"x": 1}, "b": {"x": 2}}, trials=2
        )
        by_point = run_sweep(spec, jobs=1).results_by_point()
        assert by_point == {"a": [2, 2], "b": [4, 4]}


class TestWorkerCrash:
    #: grid where point "x=3" raises inside the trial fn
    GRID = [{"x": i} for i in range(6)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_carries_seed_and_params(self, jobs):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID, seed=17)
        with pytest.raises(TrialExecutionError) as excinfo:
            run_sweep(spec, jobs=jobs)
        err = excinfo.value
        msg = str(err)
        # names the failing trial, its params, and the original exception
        assert err.label == "crashy[x=3:0]"
        assert "x=3" in err.params_desc
        assert "injected trial failure" in msg
        # the seed line is a replayable SeedSequence expression for that cell
        expected = describe_seed(spec.task_seed("x=3", 0))
        assert err.seed_desc == expected
        assert expected in msg

    def test_pool_error_includes_worker_traceback(self):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID)
        with pytest.raises(TrialExecutionError) as excinfo:
            run_sweep(spec, jobs=2)
        assert "_boom" in excinfo.value.worker_traceback

    def test_large_params_are_clipped_in_message(self):
        rel = uniform_random_relation(64, 500, seed=0)
        spec = SweepSpec(name="crashy", fn=_boom, grid={"pt": {"x": 3, "rel": rel}})
        with pytest.raises(TrialExecutionError) as excinfo:
            run_sweep(spec, jobs=1)
        assert "<HRelation n=500>" in excinfo.value.params_desc


class TestOnErrorPolicy:
    GRID = [{"x": i} for i in range(6)]

    def test_parse_on_error(self):
        assert parse_on_error("raise") == ("raise", 0)
        assert parse_on_error("skip") == ("skip", 0)
        assert parse_on_error("retry:3") == ("retry", 3)
        for bad in ("retry", "retry:0", "retry:x", "ignore"):
            with pytest.raises(ValueError):
                parse_on_error(bad)

    def test_raise_is_the_default(self):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID)
        with pytest.raises(TrialExecutionError):
            run_sweep(spec, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_skip_records_and_continues(self, jobs):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID)
        res = run_sweep(spec, jobs=jobs, on_error="skip")
        assert res.results[3] is None  # the failed cell
        assert [r for i, r in enumerate(res.results) if i != 3] == [0, 1, 2, 4, 5]
        assert res.skipped == 1
        skipped = [t for t in res.records if t.status == "skipped"]
        assert len(skipped) == 1
        assert "injected trial failure" in skipped[0].error

    def test_retry_recovers_flaky_trials(self):
        _FLAKY_CALLS.clear()
        spec = SweepSpec(name="flaky", fn=_flaky, grid=self.GRID)
        res = run_sweep(spec, jobs=1, on_error="retry:2")
        assert res.results == [0, 1, 2, 3, 4, 5]  # every trial recovered
        assert res.skipped == 0
        assert res.retried == 6 and res.retries == 6  # one retry each

    def test_retry_exhaustion_skips(self):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID)
        res = run_sweep(spec, jobs=1, on_error="retry:2")
        assert res.results[3] is None
        assert res.skipped == 1
        (rec,) = [t for t in res.records if t.status == "skipped"]
        assert rec.attempts == 3  # 1 try + 2 retries

    def test_telemetry_carries_error_columns(self):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID)
        res = run_sweep(spec, jobs=1, on_error="skip")
        tel = res.telemetry()
        assert tel["errors"] == {"skipped": 1, "retried": 0, "retries": 0}
        cols = res.to_dict()["trial_columns"]
        assert cols["status"].count("skipped") == 1
        assert any("injected trial failure" in e for e in cols["error"])

    def test_hard_worker_death_skips_exactly_one_task(self):
        """A worker dying without a traceback (``os._exit``) must not kill
        the sweep under skip — and with per-task dispatch it loses exactly
        the one in-flight trial, never a chunk: every other result is
        present and correct, and the death is visible in telemetry."""
        spec = SweepSpec(name="deadly", fn=_die, grid=self.GRID)
        res = run_sweep(spec, jobs=2, on_error="skip")
        assert res.results == [0, 1, 2, None, 4, 5]
        assert res.skipped == 1
        (rec,) = [t for t in res.records if t.status == "skipped"]
        assert rec.point == "x=3"
        assert "WorkerDied" in rec.error
        assert res.backend == "pool-steal"
        assert res.backend_stats["worker_deaths"] == 1
        assert res.telemetry()["backend"]["worker_deaths"] == 1

    def test_repeated_hard_deaths_never_wedge_the_pool(self):
        """Stress the death path: a worker killed right after reporting a
        result must never leave its siblings unable to report theirs (a
        shared result queue's write lock, still held by the dead worker's
        feeder thread, hung a few percent of these sweeps forever)."""
        import os
        import signal
        import subprocess
        import sys

        import repro

        code = (
            "import os\n"
            "from repro.sweep import SweepSpec, run_sweep\n"
            "def die(x, seed):\n"
            "    if x == 3:\n"
            "        os._exit(13)\n"
            "    return x\n"
            "spec = SweepSpec(name='deadly', fn=die, grid=[{'x': i} for i in range(6)])\n"
            "for _ in range(60):\n"
            "    res = run_sweep(spec, jobs=2, on_error='skip')\n"
            "    assert res.results == [0, 1, 2, None, 4, 5], res.results\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the wedged workers too
            proc.communicate()
            pytest.fail("a sweep wedged after a hard worker death")
        assert proc.returncode == 0, err

    def test_invalid_policy_rejected_up_front(self):
        spec = SweepSpec(name="s", fn=_double, grid=[{"x": 1}])
        with pytest.raises(ValueError, match="on_error"):
            run_sweep(spec, jobs=1, on_error="explode")


class TestPoolRetirement:
    """No pool worker outlives its sweep, however the sweep ends, and both
    placements report the same ``backend_stats`` keys."""

    GRID = [{"x": i} for i in range(6)]

    def test_raise_leaves_no_worker(self):
        spec = SweepSpec(name="crashy", fn=_boom, grid=self.GRID)
        with pytest.raises(TrialExecutionError):
            run_sweep(spec, jobs=2)
        assert _sweep_workers() == []

    def test_hard_death_leaves_no_worker(self):
        spec = SweepSpec(name="deadly", fn=_die, grid=self.GRID)
        res = run_sweep(spec, jobs=2, on_error="skip")
        assert _sweep_workers() == []
        assert res.backend_stats["worker_deaths"] == 1
        (rec,) = [t for t in res.records if t.status == "skipped"]
        assert "WorkerDied" in rec.error

    @pytest.mark.parametrize(
        "parent_delay, worker_delay",
        [(0.1, 0.0), (0.0, 0.2)],
        ids=["sent-after-death", "left-unread"],
    )
    def test_death_between_tasks_loses_the_next_task(
        self, monkeypatch, parent_delay, worker_delay
    ):
        """A worker that exits right after reporting is handed the next
        index either after it died (the send fails) or before (it dies
        with the index unread).  Neither is an error: the worker's end of
        pipe records that one task as a ``WorkerDied`` skip."""
        real_wait = multiprocessing.connection.wait

        def slow_wait(*args, **kwargs):
            ready = real_wait(*args, **kwargs)
            time.sleep(parent_delay)
            return ready

        monkeypatch.setattr(multiprocessing.connection, "wait", slow_wait)
        spec = SweepSpec(
            name="exits", fn=_exit_at_next_read, grid=self.GRID,
            common={"delay": worker_delay},
        )
        res = run_sweep(spec, jobs=2, on_error="skip")
        assert _sweep_workers() == []
        assert res.backend_stats["worker_deaths"] == 1
        (rec,) = [t for t in res.records if t.status == "skipped"]
        assert rec.index >= 2 and "WorkerDied" in rec.error
        assert res.results == [None if i == rec.index else i for i in range(6)]

    def test_death_mid_send_loses_only_that_task(self):
        """A worker that dies part-way through sending a result (killed
        while a large payload is in the pipe) is one ``WorkerDied`` skip,
        not an error out of the sweep."""
        spec = SweepSpec(name="cut", fn=_exit_mid_send, grid=self.GRID)
        res = run_sweep(spec, jobs=2, on_error="skip")
        assert _sweep_workers() == []
        assert res.results == [0, None, 2, 3, 4, 5]
        assert res.backend_stats["worker_deaths"] == 1
        (rec,) = [t for t in res.records if t.status == "skipped"]
        assert "WorkerDied" in rec.error

    def test_both_placements_report_the_same_stats_keys(self):
        spec = SweepSpec(name="s", fn=_double, grid=self.GRID)
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=2)
        keys = ["name", "steals", "tasks_per_worker", "worker_deaths", "workers"]
        assert sorted(serial.backend_stats) == sorted(pooled.backend_stats) == keys
        assert serial.backend_stats["tasks_per_worker"] == {os.getpid(): 6}
        assert sum(pooled.backend_stats["tasks_per_worker"].values()) == 6


class TestTelemetry:
    def _result(self, jobs=1):
        spec = SweepSpec(
            name="tel", fn=_draw, grid={"w": {"width": 1.0}}, trials=8, seed=0
        )
        return run_sweep(spec, jobs=jobs)

    def test_columns_and_aggregates(self):
        res = self._result()
        assert res.wall_times.shape == (8,)
        assert (res.wall_times >= 0).all()
        assert res.busy_time == pytest.approx(float(res.wall_times.sum()))
        assert 0.0 < res.utilization <= 1.0 + 1e-9
        assert res.n_workers == 1
        assert res.workers.dtype == np.int64

    def test_telemetry_block_is_json_ready(self):
        tel = self._result().telemetry()
        json.dumps(tel)
        assert tel["trials"] == 8
        assert "cache" not in tel

    def test_to_json_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.json"
        res = self._result()
        res.to_json(str(path))
        data = json.loads(path.read_text())
        assert data["results"] == res.results
        assert data["trial_columns"]["point"] == ["w"] * 8
        slim = res.to_dict(include_trials=False)
        assert "results" not in slim and "trial_columns" not in slim


#: tiny parameterizations so the full registry runs in seconds
SMALL_KWARGS = {
    "table1_measured": dict(p=64, m=8, L=4.0),
    "unbalanced_send": dict(p=128, m=16, n=5000, trials=4),
    "dynamic_stability": dict(p=64, m=8, w=64, horizon=2000),
    "leader_gap": dict(m=8),
    "self_scheduling": dict(p=128, m=16, trials=4),
    "stability_under_loss": dict(p=32, m=8, w=16, horizon=600),
    "sensitivity_grid": dict(
        p_values=(64, 256), g_values=(2.0,), L_values=(4.0,), y_grid=400
    ),
    "pricing_ablation": dict(
        p=32, n=2000, schedule_m=8, m_values=(4, 8), L_values=(1.0, 4.0)
    ),
}


class TestPoolSerialIdentity:
    """The headline invariant: for every registered experiment, a 4-job pool
    run is bit-identical to the serial run at the same seed."""

    @pytest.mark.parametrize("name", sorted(SMALL_KWARGS))
    def test_jobs4_matches_jobs1(self, name):
        kwargs = SMALL_KWARGS[name]
        serial = run_experiment(name, seed=42, jobs=1, **kwargs)
        pooled = run_experiment(name, seed=42, jobs=4, **kwargs)
        assert pooled == serial

    def test_every_experiment_is_covered(self):
        assert sorted(SMALL_KWARGS) == list_experiments()
