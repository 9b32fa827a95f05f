"""Exit codes and messages of the one error boundary in ``cli.cli_main``.

Each case feeds one defect and checks the exit code, that stderr is exactly
one ``error:`` line, and that nothing is written. Also pins the series CSV
header (it is derived from the ``AggregateSeries`` fields) and the oracle's
trials bound.
"""

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from gamefi_sim import analysis, cli, harness
from gamefi_sim.analysis import (
    CSV_HEADER,
    ORACLE_BYTES_PER_TRIAL,
    ORACLE_MAX_BYTES,
    ORACLE_MAX_TRIALS,
    coupon_oracle,
)
from gamefi_sim.cli import cli_main
from gamefi_sim.core import derive_stream

TINY_CONFIG = {"model": "retention", "iterations": 12, "repeats": 2, "master_seed": 3}


def run(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneErrorBoundary:
    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"model": "serverfi", "\xff": 1}')
        out = tmp_path / "run.csv"
        code, stdout, err = run(["simulate", "--config", str(config), "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 23: invalid start byte\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_series_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        series = tmp_path / "run.csv"
        series.write_bytes(CSV_HEADER.encode() + b"\n1,\xff,1,1,1\n")
        code, stdout, err = run(["report", "--in", str(series)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_unreadable_config_and_series_exit_two_with_their_prefixes(self, tmp_path, capsys):
        missing = tmp_path / "none"
        code, _, err = run(["simulate", "--config", str(missing), "--out", "x.csv"], capsys)
        assert (code, err) == (
            2, f"error: cannot read config: [Errno 2] No such file or directory: '{missing}'\n"
        )
        code, _, err = run(["report", "--in", str(missing)], capsys)
        assert (code, err) == (
            2, f"error: cannot read series: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_workers_below_one_exits_one_before_simulating(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")

        def no_run(*args):
            raise AssertionError("simulated despite --workers 0")

        monkeypatch.setattr(harness, "run_once", no_run)
        out = tmp_path / "run.csv"
        argv = ["simulate", "--config", str(config), "--out", str(out), "--workers", "0"]
        assert run(argv, capsys) == (1, "", "error: workers must be at least 1\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: out of memory"),
            (
                MemoryError("Unable to allocate 8.00 GiB for an array"),
                "error: out of memory: Unable to allocate 8.00 GiB for an array",
            ),
        ],
        ids=["bare", "with_text"],
    )
    def test_memory_error_in_the_run_exits_one(self, tmp_path, capsys, monkeypatch, exc, line):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")

        def run_experiment(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "run.csv"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert run(argv, capsys) == (1, "", line + "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0", "--trials", "10"], "k must be at least 1"),
            (["--k", "2", "--trials", "0"], "trials must be at least 1"),
            (["--k", "64", "--trials", "10"], "oracle supports at most 63 fragment types"),
        ],
        ids=["k", "trials", "k_too_large"],
    )
    def test_oracle_argument_errors_exit_one(self, capsys, flags, message):
        assert run(["oracle"] + flags, capsys) == (1, "", f"error: {message}\n")

    def test_main_exits_with_the_code_of_cli_main(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff")
        monkeypatch.setattr(
            sys, "argv", ["gamefi-sim", "simulate", "--config", str(config), "--out", "x.csv"]
        )
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec")
        monkeypatch.setattr(sys, "argv", ["gamefi-sim", "oracle", "--k", "2", "--trials", "10"])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 0


class TestInterruptAndBrokenPool:
    """A Ctrl-C exits 130 and a pool whose worker died exits 3, each with one line."""

    def simulate(self, tmp_path, capsys, *flags, config=TINY_CONFIG):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "run.csv"), *flags]
        return run(argv, capsys)

    def test_interrupt_exits_130(self, tmp_path, capsys, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert self.simulate(tmp_path, capsys) == (130, "", "error: interrupted\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_broken_pool_exits_three(self, tmp_path, capsys, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        def run_experiment(*args, **kwargs):
            raise BrokenProcessPool("a worker was killed")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert self.simulate(tmp_path, capsys) == (
            3, "", "error: a worker process died: a worker was killed\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_other_runtime_errors_are_not_taken_for_a_broken_pool(
        self, tmp_path, capsys, monkeypatch
    ):
        def run_experiment(*args, **kwargs):
            raise RuntimeError("a defect")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        with pytest.raises(RuntimeError, match="a defect"):
            self.simulate(tmp_path, capsys)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs at least 2 CPUs")
    def test_worker_that_dies_breaks_the_pool_and_exits_three(self, tmp_path, capsys, monkeypatch):
        # pool workers fork, so they inherit the patched run_once
        inner = harness.run_once

        def die_in_repeat_one(spec, repeat_index):
            if repeat_index == 1:
                os._exit(1)
            return inner(spec, repeat_index)

        monkeypatch.setattr(harness, "run_once", die_in_repeat_one)
        code, out, err = self.simulate(tmp_path, capsys, "--workers", "2")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: a worker process died: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs at least 2 CPUs")
    def test_interrupt_cancels_the_pending_repeats(self, tmp_path, capsys, monkeypatch):
        # repeat 0 is interrupted at once; every other repeat logs its start
        # and takes a while, so without the cancel all 39 of them would run
        log = tmp_path / "started.log"
        inner = harness.run_once

        def interrupt_repeat_zero(spec, repeat_index):
            if repeat_index == 0:
                raise KeyboardInterrupt
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{repeat_index}\n")
            time.sleep(0.05)
            return inner(spec, repeat_index)

        monkeypatch.setattr(harness, "run_once", interrupt_repeat_zero)
        config = dict(TINY_CONFIG, repeats=40)
        result = self.simulate(tmp_path, capsys, "--workers", "2", config=config)
        assert result == (130, "", "error: interrupted\n")
        # at most the repeats already handed to the workers ran
        assert len(log.read_text(encoding="utf-8").splitlines()) < 10
        assert not (tmp_path / "run.csv").exists()


# Run in a fresh interpreter: repeat 0 logs its start and sleeps, so by the
# time the test sends Ctrl-C to the process group the other worker has run
# repeat 1 and waits idle for work.
CTRL_C_RUN = """
import sys, time
from gamefi_sim import cli, harness

inner = harness.run_once
log_path = sys.argv.pop(1)

def slow_repeat_zero(spec, repeat_index):
    if repeat_index == 0:
        with open(log_path, "a", encoding="utf-8") as log:
            log.write("started\\n")
        time.sleep(2)
    return inner(spec, repeat_index)

harness.run_once = slow_repeat_zero
cli.main()
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs at least 2 CPUs")
def test_ctrl_c_to_a_pooled_run_prints_one_line(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    log = tmp_path / "started.log"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run.csv")]
    process = subprocess.Popen(
        [sys.executable, "-c", CTRL_C_RUN, str(log), *argv, "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not log.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)
        os.killpg(process.pid, signal.SIGINT)
        out, err = process.communicate(timeout=30)
    finally:
        process.kill()
    assert (process.returncode, out, err) == (130, "", "error: interrupted\n")
    assert not (tmp_path / "run.csv").exists()


def series_csv(path, means):
    rows = [f"{number},{mean},0,0,0" for number, mean in enumerate(means, start=1)]
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "means, metric",
    [
        # peak at a tiny positive mean, a hugely negative final one
        (["1e-300"] + ["-1e+300"] * 11, "final-to-peak ratio"),
        # y - y_bar overflows both ways: fsum meets -inf + inf
        (["1.7e+308", "-1.7e+308"] * 6, "late slope"),
        # y - y_bar overflows once: fsum returns -inf
        (["0"] * 3 + ["1.7e+308"] + ["-4.37e+307"] * 8, "late slope"),
        # a partial sum overflows: fsum raises OverflowError
        (["-1.7e+308"] * 11 + ["1.7e+308"], "late slope"),
    ],
    ids=["ratio", "slope_both_ways", "slope_infinite", "slope_partial_sum"],
)
def test_report_with_a_non_finite_metric_exits_one(tmp_path, capsys, means, metric):
    path = tmp_path / "run.csv"
    series_csv(path, means)
    code, stdout, err = run(["report", "--in", str(path)], capsys)
    assert (code, stdout, err) == (1, "", f"error: trend report: the {metric} overflows a float\n")


def test_csv_header_lists_the_series_fields_in_order():
    assert CSV_HEADER == (
        "iteration,mean_total_value,min_total_value,max_total_value,mean_active_players"
    )


class TestOracleTrialsBound:
    def test_bound_fits_the_byte_budget(self):
        assert ORACLE_MAX_TRIALS * ORACLE_BYTES_PER_TRIAL <= ORACLE_MAX_BYTES
        assert ORACLE_MAX_TRIALS >= 1_000_000

    @pytest.mark.parametrize("k", [1, 8, 63])
    def test_bytes_per_trial_covers_the_measured_peak(self, k):
        trials = 20_000
        coupon_oracle(k, 10, derive_stream(0, 0))
        tracemalloc.start()
        try:
            coupon_oracle(k, trials, derive_stream(0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ORACLE_BYTES_PER_TRIAL * trials + 64 * 1024

    def test_refuses_trials_above_the_bound_before_allocating(self, monkeypatch):
        # with numpy gone from the module, any allocation would raise
        monkeypatch.setattr(analysis, "np", None)
        with pytest.raises(ValueError, match=f"trials must be at most {ORACLE_MAX_TRIALS}"):
            coupon_oracle(8, ORACLE_MAX_TRIALS + 1, derive_stream(0, 0))

    def test_cli_refuses_huge_trials_with_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "np", None)
        code, stdout, err = run(["oracle", "--k", "8", "--trials", str(10**12)], capsys)
        assert code == 1 and stdout == ""
        assert err == (
            f"error: trials must be at most {ORACLE_MAX_TRIALS} ({ORACLE_BYTES_PER_TRIAL} "
            f"bytes per trial within {ORACLE_MAX_BYTES} bytes)\n"
        )
