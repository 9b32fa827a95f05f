"""Tests of the benchmark itself: span bookkeeping, wrapper removal, checks, smoke runs."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench
from checks import check_repeat
from gamefi_sim import cli, harness, retention, serverfi
from gamefi_sim.config import parse_config
from spans import Span, Tracer, layer_totals

BENCHMARK = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMOKE_SERIAL = bench.Workload("smoke_serial", {"model": "serverfi", "iterations": 12, "repeats": 3})
SMOKE_POOL = bench.Workload(
    "smoke_pool", {"model": "retention", "iterations": 12, "repeats": 3}, workers=2
)

WRAPPED = [(cli, name) for name in
           ("cli_main", "parse_config", "run_experiment", "write_series_csv", "trend_report")]
WRAPPED += [(harness, "run_once"), (harness, "aggregate"), (serverfi, "draw_fragments")]
WRAPPED += [(model, name) for model in (serverfi, retention)
            for name in ("step", "init_productivity_batch", "mutate_productivity_batch")]


def _golden(workload, tmp_path):
    """The workload's reference outputs, as golden.json holds them for the real workloads."""
    (tmp_path / "golden").mkdir()
    return bench.reference_outputs(workload, tmp_path / "golden")


def _attributes():
    return [getattr(module, name) for module, name in WRAPPED]


def test_self_time_is_span_minus_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("leaf", 6.0, 7.5, 2),
        Span("a", 9.0, 9.5, 0),
        Span("root", 20.0, 21.0, -1),
    ]
    totals = layer_totals(spans)
    assert totals["root"].total == pytest.approx(11.0)
    assert totals["root"].self_time == pytest.approx(10.0 - 3.0 - 4.0 - 0.5 + 1.0)
    assert totals["a"].total == pytest.approx(3.5)
    assert totals["a"].calls == 2
    assert totals["b"].self_time == pytest.approx(4.0 - 1.5)
    assert totals["leaf"].self_time == pytest.approx(1.5)


def test_wrappers_removed_after_traced_run_and_after_error(tmp_path):
    golden = _golden(SMOKE_SERIAL, tmp_path)
    before = _attributes()
    result = bench.run(SMOKE_SERIAL, 3, 0, True, tmp_path, golden)
    assert result.correct
    assert all(a is b for a, b in zip(_attributes(), before))

    with pytest.raises(RuntimeError):
        with Tracer(tmp_path) as tracer:
            tracer.wrap(serverfi, "step", "step")
            assert serverfi.step is not before[WRAPPED.index((serverfi, "step"))]
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_attributes(), before))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [SMOKE_SERIAL, SMOKE_POOL], ids=lambda w: w.name)
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    result = bench.run(workload, 5, 0, trace, tmp_path, _golden(workload, tmp_path))
    calls = 2 * bench.MIN_CALLS if trace else bench.MIN_CALLS
    assert (result.correct, result.failed, result.attempted) == (True, 0, 3 * calls)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(name, unit) for name, (_, unit) in result.metrics.items()] == [
        (m["name"], m["unit"]) for m in expected
    ]
    payload = json.loads(result.json_line())
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_reference_mismatch_fails_every_repeat(tmp_path):
    result = bench.run(SMOKE_SERIAL, 5, 0, False, tmp_path, {"csv_sha256": "0"})
    assert not result.correct
    assert result.failed == result.attempted
    assert any(line.startswith("check failed: reference") for line in result.lines)


@pytest.mark.parametrize(
    "model, name, delta",
    [
        ("serverfi", "inventory_total", 1),
        ("serverfi", "draw_credit_total", 0.5),
        ("serverfi", "joins", 1),
        ("retention", "payout_total", 1e-3),
        ("retention", "active_players", 1),
    ],
)
def test_checks_flag_a_broken_identity(model, name, delta):
    spec = parse_config(json.dumps({"model": model, "iterations": 30, "repeats": 1, "master_seed": 1}))
    records = harness.run_once(spec, 0)
    assert check_repeat(spec, records) == []
    record = records[10]
    if name in record.extra:
        records[10] = dataclasses.replace(record, extra={**record.extra, name: record.extra[name] + delta})
    else:
        records[10] = dataclasses.replace(record, **{name: getattr(record, name) + delta})
    assert check_repeat(spec, records)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serverfi_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_workloads_and_golden():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    golden = json.loads(bench.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(golden) == set(bench.WORKLOADS)
