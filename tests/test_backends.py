"""Tests for the two sweep placements: the one rule that picks between
them, pool-steal/serial parity over every registered experiment, and
work-stealing behavior under a straggler."""

import time

import pytest

from repro.experiments import run_experiment
from repro.sweep import SweepSpec, run_sweep

from tests.test_sweep import SMALL_KWARGS


# ---------------------------------------------------------------------------
# module-level trial functions (pool workers pickle them by reference)

def _straggle(x, seed):
    if x == 0:
        time.sleep(0.25)  # one slow trial; the pool must not wait on it
    return x * x


class TestRegistry:
    def test_resolution_defaults(self):
        # jobs alone places a sweep: jobs=1 and single-unit sweeps stay
        # in-process, real parallel work gets the pool (x >= 1: no sleep)
        many = SweepSpec(name="s", fn=_straggle, grid=[{"x": x} for x in range(1, 5)])
        one = SweepSpec(name="s", fn=_straggle, grid=[{"x": 3}])
        assert run_sweep(many, jobs=1).backend == "serial"
        assert run_sweep(one, jobs=4).backend == "serial"
        assert run_sweep(many, jobs=2).backend == "pool-steal"


class TestBackendParityMatrix:
    """Every registered experiment at jobs=2 — the pool-steal placement
    for any sweep with more than one dispatch unit — is bit-identical to
    serial at the same seed."""

    @pytest.mark.parametrize("name", sorted(SMALL_KWARGS))
    @pytest.mark.parametrize("jobs", [2], ids=["pool-steal"])
    def test_backend_matches_serial(self, name, jobs):
        kwargs = SMALL_KWARGS[name]
        serial = run_experiment(name, seed=42, jobs=1, **kwargs)
        other = run_experiment(name, seed=42, jobs=jobs, **kwargs)
        assert other == serial


class TestWorkStealing:
    def test_straggler_delays_only_itself(self):
        """With one slow trial, the other worker drains the rest of the
        queue — visible as an uneven per-worker split — and results stay
        in task order, identical to serial."""
        spec = SweepSpec(
            name="straggle", fn=_straggle,
            grid=[{"x": x} for x in range(8)], seed=1,
        )
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=2)
        assert pooled.results == serial.results == [x * x for x in range(8)]
        counts = sorted(pooled.backend_stats["tasks_per_worker"].values())
        assert sum(counts) == 8
        # the worker stuck on x=0 cannot also have drained the queue
        assert counts[0] < counts[-1]
        assert pooled.backend_stats["steals"] >= 1
        assert pooled.telemetry()["backend"]["steals"] >= 1

    def test_elapsed_not_serialized_behind_straggler(self):
        """The 0.25s straggler bounds the sweep: everything else overlaps
        it instead of queueing behind it in the same chunk."""
        spec = SweepSpec(
            name="straggle", fn=_straggle,
            grid=[{"x": x} for x in range(8)], seed=1,
        )
        pooled = run_sweep(spec, jobs=2)
        # generous bound: far below 2 * 0.25s, which a chunked schedule
        # putting two stragglers in one chunk would exceed
        assert pooled.elapsed < 2.0
