"""Series output, trend metrics, and the brute-force collection oracle.

The CSV writer is the plotting interface: one row per iteration with the
cross-repeat mean and min/max band. ``trend_report`` condenses a series
into the few numbers the two economies are compared on (late-window slope,
peak position, and how much of the peak survives to the end).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from .harness import AggregateSeries

# one column per AggregateSeries field, in field order, after the iteration
SERIES_COLUMNS = tuple(field.name for field in fields(AggregateSeries))
CSV_HEADER = ",".join(("iteration",) + SERIES_COLUMNS)

# fraction of the series used for the late-trend slope, and the cutoff
# (as a fraction of the run) under which a peak counts as "early"
LATE_WINDOW_FRACTION = 0.8
EARLY_PEAK_FRACTION = 0.4

MIN_TREND_LENGTH = 10

# coupon_oracle holds 8 arrays of 8 bytes per trial at its peak (tracemalloc
# measures 64 bytes per trial); its trials are capped to keep that within 1 GiB
ORACLE_MAX_BYTES = 2**30
ORACLE_BYTES_PER_TRIAL = 64
ORACLE_MAX_TRIALS = ORACLE_MAX_BYTES // ORACLE_BYTES_PER_TRIAL


@dataclass(frozen=True)
class TrendReport:
    """Shape summary of a mean-total-value series.

    ``late_slope`` is the least-squares slope (value per iteration) over
    the last 80% of iterations; ``final_to_peak_ratio`` is the final mean
    divided by the peak mean (1.0 when the series peaks at the end).
    """

    late_slope: float
    peak_iteration: int
    final_to_peak_ratio: float
    early_peak: bool

    def to_dict(self) -> Dict[str, Union[float, int, bool]]:
        return asdict(self)


def _fmt(x: float) -> str:
    """Render a real with 6 significant digits ('%.6g': 2.0 -> '2')."""
    return format(float(x), ".6g")


def write_series_csv(series: AggregateSeries, destination: Union[str, Path]) -> None:
    """Write the aggregate series as UTF-8 CSV with LF line endings.

    Reals carry 6 significant digits; rewriting the same series produces a
    byte-identical file.
    """
    columns = [getattr(series, name) for name in SERIES_COLUMNS]
    lines = [CSV_HEADER]
    for idx in range(len(series)):
        lines.append(",".join([str(idx + 1)] + [_fmt(column[idx]) for column in columns]))
    payload = "\n".join(lines) + "\n"
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(payload)


def read_series_csv(source: Union[str, Path]) -> AggregateSeries:
    """Parse a file produced by :func:`write_series_csv`; every value must be finite."""
    with open(source, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected CSV header '{CSV_HEADER}'")
    columns: List[List[float]] = [[] for _ in SERIES_COLUMNS]
    width = 1 + len(SERIES_COLUMNS)
    for row_number, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"row {row_number}: expected {width} columns, got {len(parts)}")
        try:
            iteration = int(parts[0])
            values = [float(part) for part in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"row {row_number}: {exc}") from None
        if iteration != row_number:
            raise ValueError(f"row {row_number}: iteration column is {iteration}")
        for column, name, part, value in zip(columns, SERIES_COLUMNS, parts[1:], values):
            if not math.isfinite(value):
                raise ValueError(f"row {row_number}: {name}={part.strip()} is not finite")
            column.append(value)
    return AggregateSeries(*columns)


def trend_report(series: AggregateSeries) -> TrendReport:
    """Compute the trend metrics for a series of at least 10 iterations.

    A slope or ratio too large for a float raises ValueError, so a report
    never holds ``inf`` (which is not JSON).
    """
    n = len(series)
    if n < MIN_TREND_LENGTH:
        raise ValueError(f"trend report requires at least {MIN_TREND_LENGTH} iterations")
    means = series.mean_total_value

    late_count = int(math.floor(LATE_WINDOW_FRACTION * n))
    late_y = means[n - late_count :]
    late_x = range(n - late_count + 1, n + 1)
    x_bar = math.fsum(late_x) / late_count
    try:
        y_bar = math.fsum(late_y) / late_count
        sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(late_x, late_y))
    except (OverflowError, ValueError):
        # fsum raises OverflowError on a sum too large for a float, and
        # ValueError on "-inf + inf" when some y - y_bar overflow both ways
        sxy = math.inf
    sxx = math.fsum((x - x_bar) ** 2 for x in late_x)
    late_slope = sxy / sxx

    peak_idx = max(range(n), key=lambda idx: (means[idx], -idx))
    peak_value = means[peak_idx]
    final_value = means[-1]
    ratio = final_value / peak_value if peak_value > 0 else 1.0
    for name, value in (("late slope", late_slope), ("final-to-peak ratio", ratio)):
        if not math.isfinite(value):
            raise ValueError(f"trend report: the {name} overflows a float")
    return TrendReport(
        late_slope=late_slope,
        peak_iteration=peak_idx + 1,
        final_to_peak_ratio=ratio,
        early_peak=(peak_idx + 1) <= EARLY_PEAK_FRACTION * n,
    )


def coupon_oracle(k: int, trials: int, rng: np.random.Generator) -> float:
    """Mean draws to collect all ``k`` fragment types, by brute simulation.

    Runs ``trials`` independent collections with uniform draws and counts
    how many draws each needs; the estimate is the plain average. Kept
    deliberately independent of the analytic k*H_k formula so the two can
    check each other.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > ORACLE_MAX_TRIALS:
        raise ValueError(
            f"trials must be at most {ORACLE_MAX_TRIALS} ({ORACLE_BYTES_PER_TRIAL} bytes "
            f"per trial within {ORACLE_MAX_BYTES} bytes)"
        )
    if k > 63:
        raise ValueError("oracle supports at most 63 fragment types")
    target = (1 << k) - 1
    collected = np.zeros(trials, dtype=np.uint64)
    draws = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    while active.size:
        u = rng.random(active.size)
        frag = (u * k).astype(np.int64)
        collected[active] |= np.uint64(1) << frag.astype(np.uint64)
        draws[active] += 1
        active = active[collected[active] != target]
    return float(draws.sum()) / trials
