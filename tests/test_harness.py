"""Tests for the CLI harness (python -m repro ...)."""

import pytest

from repro.harness import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.p == 4096 and args.m == 256

    def test_schedule_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--workload", "bogus"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--p", "256", "--m", "16", "--L", "4"]) == 0
        out = capsys.readouterr().out
        assert "One-to-all" in out and "Sorting" in out

    def test_measure(self, capsys):
        assert main(["measure", "--p", "64", "--m", "8", "--L", "4"]) == 0
        out = capsys.readouterr().out
        assert "QSM(m)" in out and "summation" in out

    @pytest.mark.parametrize("workload", ["balanced", "uniform", "zipf", "one-to-all"])
    def test_schedule(self, capsys, workload):
        assert (
            main(
                ["schedule", "--workload", workload, "--p", "128", "--n", "5000",
                 "--m", "16", "--seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "unbalanced-send" in out
        assert "Proposition 6.1" in out

    def test_dynamic(self, capsys):
        assert (
            main(
                ["dynamic", "--p", "64", "--m", "8", "--window", "64",
                 "--horizon", "4000", "--seed", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "UNSTABLE" in out  # beta*g = 3 sinks the BSP(g)
        assert out.count("stable") >= 3


class TestCacheCommand:
    def test_path(self, capsys, tmp_path):
        d = str(tmp_path / "store")
        assert main(["cache", "path", "--dir", d]) == 0
        assert capsys.readouterr().out.strip() == d

    def test_stats_and_clear_round_trip(self, capsys, tmp_path):
        import json

        from repro.store.disk import DiskStore

        d = str(tmp_path / "store")
        DiskStore(d, tag="t").put(("k",), 1)
        assert main(["cache", "stats", "--dir", d, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disk"]["entries"] == 1
        assert main(["cache", "clear", "--dir", d]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", d, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["disk"]["entries"] == 0

    def test_stats_table_marks_stale_tag(self, capsys, tmp_path):
        from repro.store.disk import DiskStore

        d = str(tmp_path / "store")
        DiskStore(d, tag="v0+dead").put(("k",), 1)
        assert main(["cache", "stats", "--dir", d]) == 0
        assert "STALE" in capsys.readouterr().out


class TestBackendFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "unbalanced_send", "--backend", "serial"],
            ["--backend", "serial", "chaos", "uniform", "--trials", "2"],
        ],
        ids=["experiment", "root"],
    )
    def test_backend_is_a_usage_error(self, capsys, argv):
        # jobs alone places a sweep: there is no placement flag to pass
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestProfileWorkload:
    def test_workload_option_is_a_usage_error(self, capsys):
        # the positional is the one workload selector
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--workload", "routing"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_list_enumerates(self, capsys):
        assert main(["profile", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "route" and "batch" in out


class TestOnErrorFlag:
    def test_invalid_policy_is_usage_error(self, capsys):
        # argparse checks the policy, as it checks every other flag
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "leader_gap", "--on-error", "bogus"])
        assert exc.value.code == 2
        assert "on-error" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["1", "2"], ids=["single", "sweep"])
    def test_chaos_rejects_invalid_policy_before_running(self, capsys, trials):
        argv = ["chaos", "uniform", "--p", "16", "--n", "200", "--m", "4",
                "--trials", trials, "--on-error", "bogus"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "on-error" in captured.err
        assert captured.out == ""  # nothing ran

    def test_non_sweep_experiment_rejects_flag(self, capsys):
        assert (
            main(["experiment", "table1_measured", "--on-error", "skip"]) == 2
        )
        assert "does not run a sweep" in capsys.readouterr().err


class TestLedgerCommand:
    @pytest.mark.parametrize("model", ["qsm-m", "qsm-g"])
    def test_route_on_a_shared_memory_model_is_rejected(self, capsys, model):
        assert main(["ledger", "route", "--model", model]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and model in captured.err
        assert captured.out == ""  # rejected before anything ran

    @pytest.mark.parametrize("model", ["bsp-m", "bsp-g", "qsm-m", "qsm-g"])
    def test_table1_programs_run_on_every_model(self, capsys, model):
        for program in ("one-to-all", "broadcast", "summation"):
            assert main(["ledger", program, "--model", model]) == 0
        assert "total charge=" in capsys.readouterr().out


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.budget_m == 4096 and args.max_queue == 64
        assert args.port == 8377 and args.workers == 4

    def test_rejects_bad_budget(self, capsys):
        assert main(["serve", "--budget-m", "0", "--no-store"]) == 2
        assert "budget_m" in capsys.readouterr().err
