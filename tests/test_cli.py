"""Command-line interface tests: subcommands, exit codes, overrides."""

import dataclasses
import json
import os
import stat

import pytest

from gamefi_sim.analysis import read_series_csv, trend_report
from gamefi_sim import cli
from gamefi_sim.cli import cli_main
from gamefi_sim.config import parse_config
from gamefi_sim.harness import run_experiment

SMALL_CONFIG = {
    "model": "serverfi",
    "master_seed": 42,
    "iterations": 25,
    "repeats": 3,
    "serverfi": {"n0": 15, "alpha": 1.05},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    return path


class TestSimulate:
    def test_writes_series_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli_main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert out.exists()
        series = read_series_csv(out)
        assert len(series) == 25
        assert "wrote" in capsys.readouterr().out

    def test_matches_library_result(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        cli_main(["simulate", "--config", str(config_path), "--out", str(out)])
        spec = parse_config(config_path.read_text(encoding="utf-8"))
        series, _ = run_experiment(spec)
        loaded = read_series_csv(out)
        for written, expected in zip(loaded.mean_total_value, series.mean_total_value):
            assert written == pytest.approx(expected, rel=1e-5)

    def test_flag_overrides_take_precedence(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        code = cli_main(
            [
                "simulate",
                "--config", str(config_path),
                "--out", str(out),
                "--iterations", "12",
                "--repeats", "2",
                "--seed", "7",
            ]
        )
        assert code == 0
        assert len(read_series_csv(out)) == 12
        spec = dataclasses.replace(
            parse_config(config_path.read_text(encoding="utf-8")),
            master_seed=7, iterations=12, repeats=2,
        )
        series, _ = run_experiment(spec)
        loaded = read_series_csv(out)
        assert loaded.mean_total_value[-1] == pytest.approx(
            series.mean_total_value[-1], rel=1e-5
        )

    def test_seed_override_changes_output(self, config_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli_main(["simulate", "--config", str(config_path), "--out", str(a)])
        cli_main(["simulate", "--config", str(config_path), "--out", str(b), "--seed", "9"])
        assert a.read_bytes() != b.read_bytes()

    def test_report_json(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        report_path = tmp_path / "report.json"
        code = cli_main(
            [
                "simulate",
                "--config", str(config_path),
                "--out", str(out),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(payload) == {
            "late_slope",
            "peak_iteration",
            "final_to_peak_ratio",
            "early_peak",
        }

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"model": "serverfi", "serverfi": {"lambda": 0.5}}', encoding="utf-8"
        )
        out = tmp_path / "run.csv"
        code = cli_main(["simulate", "--config", str(bad), "--out", str(out)])
        assert code == 1
        assert "serverfi.lambda must exceed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_report_with_too_few_iterations_exits_one_before_simulating(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "run.csv"
        report_path = tmp_path / "report.json"
        code = cli_main(
            [
                "simulate",
                "--config", str(config_path),
                "--out", str(out),
                "--report", str(report_path),
                "--iterations", "5",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at least 10 iterations" in err
        assert not out.exists()
        assert not report_path.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"model": "serverfi", "econ": {"productivity_init_mean": %s}}' % value,
            encoding="utf-8",
        )
        out = tmp_path / "run.csv"
        code = cli_main(["simulate", "--config", str(bad), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: econ.productivity_init_mean must be finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("model", ["serverfi", "retention"])
    def test_overflowing_cohort_decay_runs(self, tmp_path, model):
        path = tmp_path / "config.json"
        config = {"model": model, "iterations": 5, "repeats": 1, model: {"alpha": 1e300}}
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "run.csv"
        assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert len(read_series_csv(out)) == 5

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = cli_main(
            ["simulate", "--config", str(tmp_path / "none.json"), "--out", "x.csv"]
        )
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unwritable_output_exits_two(self, config_path, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "run.csv"
        code = cli_main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_flag_override_can_invalidate(self, config_path, tmp_path, capsys):
        code = cli_main(
            [
                "simulate",
                "--config", str(config_path),
                "--out", str(tmp_path / "x.csv"),
                "--iterations", "0",
            ]
        )
        assert code == 1
        assert "iterations" in capsys.readouterr().err


def simulate_with_report(config_path, out, report):
    return cli_main(
        ["simulate", "--config", str(config_path), "--out", str(out), "--report", str(report)]
    )


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


class TestRuntimeGuards:
    """Inputs that pass parsing but fail in the run exit 1 with one line."""

    def simulate(self, tmp_path, config, *flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "run.csv"
        return cli_main(["simulate", "--config", str(path), "--out", str(out), *flags]), out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_too_many_lottery_draws_exits_one(self, tmp_path, capsys, workers):
        config = {
            "model": "serverfi", "iterations": 5, "repeats": 2,
            "serverfi": {"n0": 3, "k": 1}, "econ": {"productivity_init_sigma": 800},
        }
        code, out = self.simulate(tmp_path, config, "--workers", workers)
        err = capsys.readouterr().err
        assert code == 1
        assert error_lines(err) == err.splitlines()
        assert "lottery draws" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_entry_productivity_exits_one(self, tmp_path, capsys):
        config = {"model": "retention", "econ": {"productivity_init_sigma": 1000}}
        code, out = self.simulate(tmp_path, config)
        err = capsys.readouterr().err
        assert code == 1
        assert error_lines(err) == err.splitlines()
        assert "econ.productivity_init_sigma" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "model, mean", [("retention", 1e300), ("serverfi", 1e308)], ids=["retention", "serverfi"]
    )
    def test_float_overflow_exits_one(self, tmp_path, capsys, model, mean, workers):
        # retention overflows in its payout, serverfi in the entry productivity
        config = {
            "model": model, "iterations": 20, "repeats": 2,
            "econ": {"productivity_init_mean": mean},
        }
        code, out = self.simulate(tmp_path, config, "--workers", workers)
        err = capsys.readouterr().err
        assert code == 1
        assert error_lines(err) == err.splitlines()
        assert "repeat 0, iteration 1: a value overflows a float" in err
        assert "econ.productivity_" in err
        assert not out.exists()

    def test_overflowing_mean_and_trend_exit_one(self, tmp_path, capsys):
        # one player at the largest float: each repeat runs, but the mean
        # over two repeats, or the trend of one, overflows
        config = {
            "model": "retention", "iterations": 12, "repeats": 2,
            "econ": {"productivity_floor": 1.7976931348623157e308, "mutation_sigma": 0},
            "retention": {"n0": 1, "window": 1, "equal_split": True},
        }
        code, out = self.simulate(tmp_path, config)
        err = capsys.readouterr().err
        assert code == 1 and err == "error: the mean total value of iteration 1 overflows a float\n"
        assert not out.exists()
        report = tmp_path / "report.json"
        code, out = self.simulate(tmp_path, config, "--repeats", "1", "--report", str(report))
        err = capsys.readouterr().err
        assert code == 1 and err == "error: trend report: the late slope overflows a float\n"
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"model": "retention", "retention": {"n0": 10**26}}, []),
            ({"model": "retention", "retention": {"window": 10**26}}, []),
            ({"model": "serverfi"}, ["--iterations", str(2**64)]),
            ({"model": "serverfi"}, ["--repeats", str(2**64)]),
        ],
        ids=["n0", "window", "iterations", "repeats"],
    )
    def test_run_over_budget_exits_one_before_simulating(self, tmp_path, capsys, config, flags):
        code, out = self.simulate(tmp_path, config, *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: run budget exceeded") and err.count("\n") == 1
        assert not out.exists()


class TestAtomicOutputs:
    def test_report_in_missing_directory_leaves_no_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        report = tmp_path / "missing_dir" / "report.json"
        assert simulate_with_report(config_path, out, report) == 2
        err = capsys.readouterr().err
        assert len(error_lines(err)) == 1
        assert "report.json" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_csv_in_missing_directory_leaves_no_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "run.csv"
        report = tmp_path / "report.json"
        assert simulate_with_report(config_path, out, report) == 2
        assert len(error_lines(capsys.readouterr().err)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("out", ["x.out", "./x.out", "{work}/x.out"])
    def test_report_naming_the_csv_exits_one_before_simulating(
        self, config_path, tmp_path, capsys, monkeypatch, out
    ):
        # else the report's rename would replace the CSV
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert simulate_with_report(config_path, out.format(work=work), "x.out") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == [
            "error: --report must name a different file than --out"
        ]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("name", ["fifo", "link"])
    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_naming_a_fifo_exits_one_before_simulating(
        self, config_path, tmp_path, capsys, flag, name
    ):
        # else the output's rename would replace the FIFO, or the link to
        # it, with a regular file
        os.mkfifo(tmp_path / "fifo")
        os.symlink("fifo", tmp_path / "link")
        paths = {"--out": tmp_path / "run.csv", "--report": tmp_path / "report.json"}
        paths[flag] = tmp_path / name
        assert simulate_with_report(config_path, paths["--out"], paths["--report"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error_lines(captured.err) == captured.err.splitlines() == [
            f"error: {flag} names {tmp_path / name}, which is a FIFO, socket or device"
        ]
        assert stat.S_ISFIFO(os.lstat(tmp_path / "fifo").st_mode)
        assert os.readlink(tmp_path / "link") == "fifo"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "fifo", "link"]

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_in_missing_directory_exits_two_before_simulating(
        self, config_path, tmp_path, capsys, monkeypatch, flag
    ):
        def run_experiment(*args, **kwargs):
            raise AssertionError("simulated before checking the output directory")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        missing = tmp_path / "missing_dir" / "output"
        out = missing if flag == "--out" else tmp_path / "run.csv"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        if flag == "--report":
            argv += ["--report", str(missing)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write output: [Errno 2] No such file or directory: '{missing}'"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_output_naming_a_directory_exits_two_before_simulating(
        self, config_path, tmp_path, capsys, monkeypatch, flag
    ):
        def run_experiment(*args, **kwargs):
            raise AssertionError("simulated before checking for a directory")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        folder = tmp_path / "folder"
        folder.mkdir()
        paths = {"--out": tmp_path / "run.csv", "--report": tmp_path / "report.json"}
        paths[flag] = folder
        assert simulate_with_report(config_path, paths["--out"], paths["--report"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write output: [Errno 21] Is a directory: '{folder}'"
        ]
        assert list(folder.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "folder"]

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new_name", "existing_file"])
    def test_output_with_a_trailing_slash_exits_two_before_simulating(
        self, config_path, tmp_path, capsys, monkeypatch, flag, existing
    ):
        def run_experiment(*args, **kwargs):
            raise AssertionError("simulated before checking for a trailing slash")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        if existing:
            (tmp_path / "name").write_text("previous\n", encoding="utf-8")
        slashed = str(tmp_path / "name") + os.sep
        paths = {"--out": tmp_path / "run.csv", "--report": tmp_path / "report.json"}
        paths[flag] = slashed
        assert simulate_with_report(config_path, paths["--out"], paths["--report"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write output: [Errno 20] Not a directory: '{slashed}'"
        ]
        names = ["config.json", "name"] if existing else ["config.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_output_naming_a_link_to_a_directory_replaces_the_link(
        self, config_path, tmp_path, capsys
    ):
        folder = tmp_path / "folder"
        folder.mkdir()
        os.symlink("folder", tmp_path / "link")
        out = tmp_path / "link"
        assert cli_main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert not out.is_symlink() and out.read_text(encoding="utf-8").startswith("iteration,")
        assert list(folder.iterdir()) == []

    def test_failed_rename_removes_the_outputs_already_placed(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        # a directory appears at --report during the run: both writes
        # succeed, its rename fails
        out = tmp_path / "run.csv"
        report = tmp_path / "report.json"

        def run_then_make_the_directory(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            report.mkdir()
            return result

        monkeypatch.setattr(cli, "run_experiment", run_then_make_the_directory)
        assert simulate_with_report(config_path, out, report) == 2
        assert len(error_lines(capsys.readouterr().err)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "report.json"]
        assert list(report.iterdir()) == []

    def test_failed_write_keeps_previous_output_intact(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run.csv"
        out.write_text("previous\n", encoding="utf-8")

        def half_write(series, destination):
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write("iteration,mean_total")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_series_csv", half_write)
        code = cli_main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert error_lines(err) == [
            f"error: cannot write output: [Errno 28] No space left on device: '{out}'"
        ]
        assert out.read_text(encoding="utf-8") == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run.csv"]

    def test_success_replaces_outputs_and_leaves_no_temp_files(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        report = tmp_path / "report.json"
        out.write_text("previous\n", encoding="utf-8")
        assert simulate_with_report(config_path, out, report) == 0
        assert len(read_series_csv(out)) == 25
        assert json.loads(report.read_text(encoding="utf-8"))["peak_iteration"] >= 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json",
            "report.json",
            "run.csv",
        ]


class TestReport:
    def test_recomputes_trend_from_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cli_main(["simulate", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["report", "--in", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = trend_report(read_series_csv(out)).to_dict()
        assert payload == expected

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli_main(["report", "--in", str(tmp_path / "none.csv")])
        assert code == 2

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n", encoding="utf-8")
        assert cli_main(["report", "--in", str(path)]) == 1

    def test_non_finite_cell_exits_one_without_a_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        fields = lines[5].split(",")
        fields[1] = "nan"
        lines[5] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row 5: mean_total_value=nan is not finite\n"

    def test_short_series_exits_one(self, config_path, tmp_path, capsys):
        out = tmp_path / "short.csv"
        cli_main(
            ["simulate", "--config", str(config_path), "--out", str(out), "--iterations", "5"]
        )
        assert cli_main(["report", "--in", str(out)]) == 1
        assert "at least 10" in capsys.readouterr().err


class TestOracle:
    def test_prints_analytic_and_estimate(self, capsys):
        code = cli_main(["oracle", "--k", "4", "--trials", "100000", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["analytic_cost"]) == pytest.approx(25.0 / 3.0, rel=1e-4)
        assert float(values["relative_error"]) < 0.02

    def test_deterministic_given_seed(self, capsys):
        cli_main(["oracle", "--k", "3", "--trials", "1000", "--seed", "5"])
        first = capsys.readouterr().out
        cli_main(["oracle", "--k", "3", "--trials", "1000", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_invalid_k_exits_one(self, capsys):
        assert cli_main(["oracle", "--k", "0", "--trials", "10"]) == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli_main(["oracle", "--k", "2", "--trials", "5", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli_main(["simulate", "--out", "x.csv"]) == 1
