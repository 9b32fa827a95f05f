"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts as
they complete. The shape criteria (2, 3) and the full-protocol criterion
(6) run real multi-repeat experiments and take a couple of minutes
combined.
"""

import json
import resource
import time

import numpy as np

from gamefi_sim import retention, serverfi
from gamefi_sim.analysis import coupon_oracle, trend_report, write_series_csv
from gamefi_sim.cli import cli_main
from gamefi_sim.core import derive_stream
from gamefi_sim.harness import ExperimentSpec, run_experiment
from gamefi_sim.serverfi import arrivals, entry_gate, expected_collection_cost
from reference import RetentionPlayer, draws_for_contribution, select_top, step_record
from reference import update_churn

GIB = 1024**3


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_oracle_matches_analytic_cost():
    start = time.monotonic()
    errors = {}
    for k in (2, 4, 8):
        estimate = coupon_oracle(k, 100_000, derive_stream(42, k))
        analytic = expected_collection_cost(k, 1.0)
        errors[k] = abs(estimate - analytic) / analytic
    elapsed = time.monotonic() - start
    ok = all(err < 0.02 for err in errors.values()) and elapsed < 10.0
    detail = (
        "oracle vs k*H_k relative errors "
        + ", ".join(f"k={k}: {err:.4%}" for k, err in errors.items())
        + f" (tolerance 2%), runtime {elapsed:.2f}s < 10s"
    )
    _verdict(1, ok, detail)


def test_criterion_2_synthesis_economy_trends_upward():
    spec = ExperimentSpec(model="serverfi", repeats=20, master_seed=42)
    start = time.monotonic()
    series, _ = run_experiment(spec)
    elapsed = time.monotonic() - start
    report = trend_report(series)
    ratio = series.mean_total_value[499] / series.mean_total_value[49]
    ok = report.late_slope > 0 and ratio >= 1.2 and elapsed < 120.0
    detail = (
        f"late_slope {report.late_slope:.4f} > 0, "
        f"mean T(500)/T(50) = {ratio:.3f} >= 1.2, runtime {elapsed:.1f}s < 120s"
    )
    _verdict(2, ok, detail)


def test_criterion_3_retention_economy_peaks_early_then_declines():
    spec = ExperimentSpec(model="retention", repeats=20, master_seed=42)
    start = time.monotonic()
    series, _ = run_experiment(spec)
    elapsed = time.monotonic() - start
    report = trend_report(series)
    ok = (
        report.early_peak
        and report.final_to_peak_ratio <= 0.6
        and elapsed < 120.0
    )
    detail = (
        f"peak at iteration {report.peak_iteration} (early_peak={report.early_peak}), "
        f"final/peak = {report.final_to_peak_ratio:.4f} <= 0.6, runtime {elapsed:.1f}s < 120s"
    )
    _verdict(3, ok, detail)


def test_criterion_4_determinism_across_runs_and_worker_counts(tmp_path):
    config = {
        "model": "serverfi",
        "master_seed": 42,
        "iterations": 150,
        "repeats": 4,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(first)]) == 0
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(second)]) == 0
    cli_identical = first.read_bytes() == second.read_bytes()

    spec = ExperimentSpec(model="serverfi", master_seed=42, iterations=150, repeats=4)
    serial_series, serial_raw = run_experiment(spec, workers=1)
    pooled_series, pooled_raw = run_experiment(spec, workers=2)
    serial_csv = tmp_path / "serial.csv"
    pooled_csv = tmp_path / "pooled.csv"
    write_series_csv(serial_series, serial_csv)
    write_series_csv(pooled_series, pooled_csv)
    workers_identical = (
        serial_csv.read_bytes() == pooled_csv.read_bytes() and serial_raw == pooled_raw
    )

    ok = cli_identical and workers_identical
    detail = (
        f"repeated simulate byte-identical: {cli_identical}; "
        f"1 vs 2 workers byte-identical: {workers_identical}"
    )
    _verdict(4, ok, detail)


def test_criterion_5_conservation_over_full_runs():
    # retention: distributed payouts equal the configured share of the
    # window totals at every iteration
    spec = ExperimentSpec(model="retention", master_seed=42)
    state = retention.new_state(spec.retention, spec.econ)
    rng = derive_stream(spec.master_seed, 0)
    worst_rel = 0.0
    for _ in range(spec.iterations):
        record = step_record(retention, retention.step(state, rng)[1])
        basis = spec.retention.pool_share * record.extra["window_total_sum"]
        if record.active_players:
            err = abs(record.extra["payout_total"] - basis)
            rel = err / basis if basis > 0 else err
            worst_rel = max(worst_rel, rel)
    payout_ok = worst_rel <= 1e-9

    # synthesis economy: exact fragment ledger and exact per-player
    # value-to-draw conversion across all 500 iterations
    spec = ExperimentSpec(model="serverfi", master_seed=42)
    params = spec.serverfi
    state = serverfi.new_state(params, spec.econ)
    rng = derive_stream(spec.master_seed, 0)
    spot_rng = derive_stream(7, 0)
    drawn = minted = departed_frags = 0
    fragments_ok = True
    conversion_ok = True
    for _ in range(spec.iterations):
        ids_before = state.ids.copy()
        credit_before = state.draw_credit.copy()
        value_before = state.productivity.copy()
        record = step_record(serverfi, serverfi.step(state, rng)[1])

        drawn += int(record.extra["draws"])
        minted += int(record.extra["nfts_minted"])
        departed_frags += int(record.extra["fragments_departed"])
        inventory = int(record.extra["inventory_total"])
        fragments_ok &= drawn - params.k * minted - departed_frags == inventory

        # incumbents surviving this step: their stored credit must equal a
        # fresh evaluation of the conversion rule, bit for bit
        surviving = np.isin(ids_before, state.ids)
        positions = np.searchsorted(state.ids, ids_before[surviving])
        total = credit_before[surviving] + value_before[surviving]
        draws = np.floor(total / params.lam)
        expected_credit = total - draws * params.lam
        conversion_ok &= np.array_equal(state.draw_credit[positions], expected_credit)
        conversion_ok &= bool((state.draw_credit < params.lam).all())
        conversion_ok &= bool((state.draw_credit >= 0.0).all())
        if surviving.any():
            picks = (spot_rng.random(10) * surviving.sum()).astype(np.int64)
            for j in picks:
                n_ref, credit_ref = draws_for_contribution(
                    float(credit_before[surviving][j]),
                    float(value_before[surviving][j]),
                    params.lam,
                )
                conversion_ok &= state.draw_credit[positions[j]] == credit_ref
                conversion_ok &= n_ref == int(draws[j])

    ok = payout_ok and fragments_ok and conversion_ok
    detail = (
        f"payout conservation worst relative error {worst_rel:.2e} <= 1e-9; "
        f"fragment ledger exact: {fragments_ok}; value-to-draw exact: {conversion_ok}"
    )
    _verdict(5, ok, detail)


def test_criterion_6_full_protocol_scale():
    start = time.monotonic()
    for model in ("serverfi", "retention"):
        spec = ExperimentSpec(model=model, iterations=500, repeats=100, master_seed=42)
        series, results = run_experiment(spec)
        assert len(series) == 500
        assert len(results) == 100
    elapsed = time.monotonic() - start
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    ok = elapsed < 600.0 and peak_rss < GIB
    detail = (
        f"500x100 for both models in {elapsed:.1f}s < 600s, "
        f"peak RSS {peak_rss / GIB:.2f} GiB < 1 GiB"
    )
    _verdict(6, ok, detail)


def test_criterion_7_rule_examples_verbatim():
    checks = []

    # winner count: max(1, floor(p*N)) and minimum-one rule
    checks.append(select_top({0: 10.0, 1: 5.0, 2: 1.0, 3: 1.0, 4: 1.0}, 0.2) == [0])
    checks.append(select_top({0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}, 0.2) == [0])

    # boundary tie breaks to the lower id
    checks.append(select_top({0: 5.0, 1: 5.0}, 0.2) == [0])

    # miss counter / tolerance departure semantics
    players = [RetentionPlayer(0, 1.0, 3, 3)]
    checks.append([p.id for p in update_churn(players, [])] == [0])
    players = [RetentionPlayer(0, 1.0, 3, 3)]
    checks.append(update_churn(players, [0]) == [] and players[0].consecutive_misses == 0)
    players = [RetentionPlayer(0, 1.0, 1, 0)]
    checks.append(update_churn(players, []) == [] and players[0].consecutive_misses == 1)

    # entry-gate arithmetic
    checks.append(entry_gate(25.0 / 3.0, 0.2, 50) is True)
    checks.append(entry_gate(25.0 / 3.0, 0.1, 50) is False)
    checks.append(entry_gate(5.0, 0.0, 50) is False)

    # arrival law floor(n0 / alpha^(i-1))
    checks.append(arrivals(1, 100, 1.1, True) == 100)
    checks.append(arrivals(2, 100, 1.1, True) == 90)
    checks.append(arrivals(2, 100, 1.1, False) == 0)

    ok = all(checks)
    detail = f"{sum(checks)}/{len(checks)} rule examples hold verbatim"
    _verdict(7, ok, detail)
