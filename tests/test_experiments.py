"""Tests for the programmatic experiment registry."""

import json
import math
from pathlib import Path

import pytest

from repro.experiments import (
    UnknownExperimentError,
    list_experiments,
    run_experiment,
)

from tests.test_sweep import SMALL_KWARGS

#: ``run_experiment(name, seed=42, jobs=1, **SMALL_KWARGS[name])`` for every
#: registered experiment, recorded before the sweep memo cache was removed
GOLDEN_PATH = Path(__file__).with_name("golden_experiments.json")


class TestRegistry:
    def test_list(self):
        names = list_experiments()
        assert "table1_measured" in names
        assert "dynamic_stability" in names
        assert names == sorted(names)

    def test_unknown_name(self):
        with pytest.raises(UnknownExperimentError, match="unknown experiment"):
            run_experiment("bogus")

    def test_unknown_name_is_a_value_error_with_choices(self):
        with pytest.raises(ValueError) as excinfo:
            run_experiment("bogus")
        err = excinfo.value
        assert err.name == "bogus"
        assert err.choices == list_experiments()
        assert "choose from" in str(err)

    def test_every_experiment_runs_and_serializes(self):
        small_kwargs = {
            "table1_measured": dict(p=64, m=8, L=4.0),
            "unbalanced_send": dict(p=128, m=16, n=5000, trials=3),
            "dynamic_stability": dict(p=64, m=8, w=64, horizon=4000),
            "leader_gap": dict(m=8),
            "self_scheduling": dict(p=128, m=16, trials=3),
            "stability_under_loss": dict(p=32, m=8, w=16, horizon=600),
            "sensitivity_grid": dict(
                p_values=(64, 256), g_values=(2.0,), L_values=(4.0,), y_grid=400
            ),
            "pricing_ablation": dict(
                p=32, n=2000, schedule_m=8, m_values=(4, 8), L_values=(1.0, 4.0)
            ),
        }
        for name in list_experiments():
            out = run_experiment(name, **small_kwargs[name])
            json.dumps(out, default=float)

    def test_deterministic_under_seed(self):
        a = run_experiment("unbalanced_send", p=128, m=16, n=5000, trials=3, seed=7)
        b = run_experiment("unbalanced_send", p=128, m=16, n=5000, trials=3, seed=7)
        assert a == b


def _assert_matches(got, want, path):
    """Ints, bools and strings exactly; floats to ``rel=1e-12``, because
    ``DynamicResult.backlog_slope`` sums with ``np.dot``, whose last bit
    may differ across CPUs."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and math.isclose(got, want, rel_tol=1e-12), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


class TestGoldenOutputs:
    """Every registered experiment's output, pinned: a change that moves a
    ratio, a model time or a flag fails here, not only a change that makes
    the pool disagree with the serial run."""

    @pytest.mark.parametrize("name", sorted(SMALL_KWARGS))
    def test_matches_golden(self, name):
        want = json.loads(GOLDEN_PATH.read_text())[name]
        out = run_experiment(name, seed=42, jobs=1, **SMALL_KWARGS[name])
        _assert_matches(json.loads(json.dumps(out, default=float)), want, name)


class TestExperimentShapes:
    def test_table1_separations(self):
        out = run_experiment("table1_measured", p=128, m=8, L=4.0)
        t = out["times"]["one_to_all"]
        assert t["bsp_g"] / t["bsp_m"] >= 0.8 * out["g"]

    def test_dynamic_threshold(self):
        out = run_experiment("dynamic_stability", p=64, m=8, w=64, horizon=8000)
        for row in out["sweep"]:
            if row["beta_times_g"] < 1.0:
                assert row["bsp_g"]["stable"]
            else:
                assert not row["bsp_g"]["stable"]
            assert row["algorithm_b"]["stable"]

    def test_self_scheduling_within_eps(self):
        out = run_experiment("self_scheduling", p=256, m=32, epsilon=0.2, trials=5)
        for wk in out["workloads"].values():
            assert wk["max_ratio"] <= 1.25


class TestCLIExperiment:
    def test_list_command(self, capsys):
        from repro.harness import main

        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "leader_gap" in out

    def test_json_output(self, tmp_path, capsys):
        from repro.harness import main

        path = tmp_path / "out.json"
        assert main(["experiment", "leader_gap", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["sweep"]

    def test_unknown_name_exits_nonzero_with_choices(self, capsys):
        from repro.harness import main

        assert main(["experiment", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "leader_gap" in err  # the choices list is printed

    def test_jobs_flag_accepted(self, capsys):
        from repro.harness import main

        assert main(["experiment", "leader_gap", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "jobs = 2" in out
