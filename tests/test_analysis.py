"""CSV round-trip, trend metrics, and collection-oracle tests."""

import pytest

from gamefi_sim.analysis import (
    CSV_HEADER,
    coupon_oracle,
    read_series_csv,
    trend_report,
    write_series_csv,
)
from gamefi_sim.core import derive_stream
from gamefi_sim.harness import AggregateSeries
from gamefi_sim.serverfi import expected_collection_cost


def _series(means, actives=None):
    actives = actives if actives is not None else [0.0] * len(means)
    means = [float(m) for m in means]
    return AggregateSeries(means, list(means), list(means), list(actives))


class TestSeriesCsv:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(_series([1.5, 2.5, 3.5]), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1,")

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "series.csv"
        series = AggregateSeries(
            [2.0], [1234567.0], [0.000123456789], [1.0 / 3.0]
        )
        write_series_csv(series, path)
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert row == "1,2,1.23457e+06,0.000123457,0.333333"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(_series([1.0]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rewrite_is_byte_identical(self, tmp_path):
        series = _series([1.23456789, 9.87654321, 5.0])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_series_csv(series, first)
        write_series_csv(series, second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_to_six_digits(self, tmp_path):
        path = tmp_path / "series.csv"
        series = AggregateSeries(
            [123.456789, 0.001234567],
            [100.0, 0.001],
            [150.123456, 0.002],
            [42.4242424, 7.0],
        )
        write_series_csv(series, path)
        loaded = read_series_csv(path)
        for written, read in zip(series.mean_total_value, loaded.mean_total_value):
            assert read == pytest.approx(written, rel=1e-5)
        # a second write of the parsed series reproduces the file exactly
        second = tmp_path / "again.csv"
        write_series_csv(loaded, second)
        assert second.read_bytes() == path.read_bytes()

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iteration,mean\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)

    def test_read_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 1"):
            read_series_csv(path)
        path.write_text(CSV_HEADER + "\n7,1,1,1,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="iteration column"):
            read_series_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " Infinity"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    def test_read_rejects_non_finite_values(self, tmp_path, cell, column):
        parts = ["2", "1", "1", "1", "1"]
        parts[column] = cell
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,1,1,1,1\n" + ",".join(parts) + "\n", encoding="utf-8")
        name = CSV_HEADER.split(",")[column]
        with pytest.raises(ValueError, match=rf"^row 2: {name}={cell.strip()} is not finite$"):
            read_series_csv(path)


class TestTrendReport:
    def test_strictly_increasing(self):
        report = trend_report(_series(range(1, 21)))
        assert report.late_slope > 0
        assert report.final_to_peak_ratio == 1.0
        assert report.peak_iteration == 20
        assert report.early_peak is False

    def test_early_peak_then_decline(self):
        means = [1.0, 5.0] + [2.0] * 8
        report = trend_report(_series(means))
        assert report.peak_iteration == 2
        assert report.final_to_peak_ratio == pytest.approx(0.4)
        assert report.early_peak is True

    def test_constant_series_zero_slope(self):
        report = trend_report(_series([3.5] * 12))
        assert report.late_slope == 0.0
        assert report.final_to_peak_ratio == 1.0

    def test_peak_tie_resolves_to_earliest(self):
        means = [1.0, 9.0, 3.0, 9.0] + [1.0] * 8
        assert trend_report(_series(means)).peak_iteration == 2

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            trend_report(_series(range(9)))

    def test_all_zero_series(self):
        report = trend_report(_series([0.0] * 15))
        assert report.late_slope == 0.0
        assert report.final_to_peak_ratio == 1.0

    def test_late_window_ignores_early_transient(self):
        # huge early spike, flat afterwards: the late slope must not see it
        means = [1000.0] + [5.0] * 99
        report = trend_report(_series(means))
        assert report.late_slope == 0.0
        assert report.peak_iteration == 1


class TestCouponOracle:
    def test_single_type_needs_exactly_one_draw(self):
        assert coupon_oracle(1, 1000, derive_stream(30, 0)) == 1.0

    def test_matches_analytic_for_k2(self):
        estimate = coupon_oracle(2, 10_000, derive_stream(31, 0))
        analytic = expected_collection_cost(2, 1.0)
        assert abs(estimate - analytic) / analytic < 0.05

    def test_rejects_bad_arguments(self):
        rng = derive_stream(32, 0)
        with pytest.raises(ValueError):
            coupon_oracle(0, 10, rng)
        with pytest.raises(ValueError):
            coupon_oracle(2, 0, rng)

    def test_deterministic(self):
        a = coupon_oracle(4, 5000, derive_stream(33, 0))
        b = coupon_oracle(4, 5000, derive_stream(33, 0))
        assert a == b
