"""Deterministic agent-based simulator for two GameFi token-economy designs.

The package compares a fragment-lottery economy (synthesize-and-stake, see
:mod:`gamefi_sim.serverfi`) against a top-contributor reward economy
(:mod:`gamefi_sim.retention`) under a shared agent population model, with a
reproducible multi-repeat experiment harness and CSV/trend reporting.
"""

from .analysis import (
    TrendReport,
    coupon_oracle,
    read_series_csv,
    trend_report,
    write_series_csv,
)
from .config import ConfigError, parse_config
from .core import EconParams, IterationRecord, RepeatRecords, derive_stream
from .harness import (
    AggregateSeries,
    ExperimentSpec,
    aggregate,
    run_experiment,
    run_once,
    validate_spec,
)
from .retention import RetentionParams
from .serverfi import ServerFiParams

__version__ = "0.1.0"

__all__ = [
    "AggregateSeries",
    "ConfigError",
    "EconParams",
    "ExperimentSpec",
    "IterationRecord",
    "RepeatRecords",
    "RetentionParams",
    "ServerFiParams",
    "TrendReport",
    "aggregate",
    "coupon_oracle",
    "derive_stream",
    "parse_config",
    "read_series_csv",
    "run_experiment",
    "run_once",
    "trend_report",
    "validate_spec",
    "write_series_csv",
]
