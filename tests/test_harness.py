"""Experiment harness tests: repeats, aggregation, scheduling independence."""

import concurrent.futures
import dataclasses

import numpy as np
import pytest

from gamefi_sim import harness, serverfi
from gamefi_sim.core import STORE_FACTOR, EconParams, RepeatRecords, derive_stream
from gamefi_sim.harness import (
    AggregateSeries,
    ExperimentSpec,
    aggregate,
    run_experiment,
    run_once,
    validate_spec,
)
from gamefi_sim.retention import RetentionParams
from gamefi_sim.serverfi import ServerFiParams
from reference import step_record

SMALL_SERVERFI = ExperimentSpec(
    model="serverfi",
    serverfi=ServerFiParams(n0=20, alpha=1.05),
    iterations=30,
    repeats=4,
    master_seed=42,
)
SMALL_RETENTION = ExperimentSpec(
    model="retention",
    retention=RetentionParams(n0=20, alpha=1.05),
    iterations=30,
    repeats=4,
    master_seed=42,
)


INVALID_SPECS = [
    (dict(model="bogus"), "model"),
    (dict(iterations=0), "iterations must be at least 1"),
    (dict(repeats=0), "repeats must be at least 1"),
    (dict(master_seed=-1), "master_seed"),
    (dict(master_seed=2**64), "master_seed"),
    (dict(serverfi=ServerFiParams(lam=0.5)), r"serverfi\.lambda must exceed 1"),
    (dict(retention=RetentionParams(window=0)), r"retention\.window"),
]


def _repeat(*rows):
    """A repeat of (iteration, total_value, active_players) rows, no joins or departures."""
    return RepeatRecords(np.array([(*row, 0, 0) for row in rows], dtype=float), ())


class TestValidateSpec:
    def test_defaults_valid(self):
        validate_spec(ExperimentSpec())

    @pytest.mark.parametrize("kwargs,fragment", INVALID_SPECS)
    def test_rejects_invalid(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            validate_spec(ExperimentSpec(**kwargs))

    @pytest.mark.parametrize("kwargs,fragment", INVALID_SPECS)
    def test_construction_rejects_invalid(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ExperimentSpec(**kwargs)

    def test_replace_rejects_invalid(self):
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            dataclasses.replace(ExperimentSpec(), repeats=0)

    @pytest.mark.parametrize(
        "spec",
        [
            ExperimentSpec(model="serverfi", iterations=500, repeats=100),
            ExperimentSpec(model="retention", iterations=500, repeats=100),
            ExperimentSpec(model="retention", retention=RetentionParams(n0=5000), repeats=4),
            ExperimentSpec(model="serverfi", serverfi=ServerFiParams(k=64), repeats=40),
            ExperimentSpec(model="retention", retention=RetentionParams(n0=0, window=10**6)),
            # "at most": exactly 2**20 records, and exactly 2**30 bytes of
            # state, 4 x 8 x (k + 4) bytes per player or one player's window
            ExperimentSpec(iterations=2**20, repeats=1),
            ExperimentSpec(serverfi=ServerFiParams(k=4, n0=2**22), iterations=1),
            ExperimentSpec(model="retention", retention=RetentionParams(n0=0, window=2**25 - 4)),
        ],
        ids=["serverfi_500x100", "retention_500x100", "retention_crowd", "k64", "empty",
             "records_at_limit", "state_at_limit", "one_player_at_limit"],
    )
    def test_budget_admits_ordinary_runs(self, spec):
        validate_spec(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=2**64),
            dict(iterations=10**4, repeats=10**3),
            dict(serverfi=ServerFiParams(n0=10**26)),
            dict(serverfi=ServerFiParams(n0=10**7, alpha=1.0001)),
            dict(model="retention", retention=RetentionParams(n0=10**26)),
            dict(model="retention", retention=RetentionParams(n0=0, window=10**26)),
            dict(model="retention", retention=RetentionParams(window=10**9)),
            # one past each limit the admitting test runs at
            dict(iterations=2**20 + 1, repeats=1),
            dict(serverfi=ServerFiParams(k=4, n0=2**22 + 1), iterations=1),
            dict(model="retention", retention=RetentionParams(n0=0, window=2**25 - 3)),
        ],
    )
    def test_budget_refuses_oversized_runs(self, kwargs):
        with pytest.raises(ValueError, match="run budget exceeded"):
            validate_spec(ExperimentSpec(**kwargs))

    def test_budget_bounds_population_by_the_geometric_series(self):
        # at most n0 * ceil(1.5 / 0.5) = 3 * n0 players join, however many
        # iterations run: 3e6 players x 4 x 40 bytes fits, 3e7 does not
        spec = ExperimentSpec(iterations=10**6, repeats=1)
        validate_spec(dataclasses.replace(spec, serverfi=ServerFiParams(n0=10**6, alpha=1.5, k=1)))
        with pytest.raises(ValueError, match="run budget exceeded"):
            validate_spec(dataclasses.replace(spec, serverfi=ServerFiParams(n0=10**7, alpha=1.5, k=1)))

    def test_budget_counts_what_the_store_allocates(self):
        # k=1: 40 bytes of columns per player, up to 4 x 40 allocated, so
        # 6e6 players (960 MB) fit and 9e6 (1.44 GB) do not, although their
        # 360 MB of live columns would
        spec = ExperimentSpec(iterations=10**6, repeats=1)
        fits = ServerFiParams(n0=2 * 10**6, alpha=1.5, k=1)
        refused = ServerFiParams(n0=3 * 10**6, alpha=1.5, k=1)
        validate_spec(dataclasses.replace(spec, serverfi=fits))
        with pytest.raises(ValueError, match="run budget exceeded"):
            validate_spec(dataclasses.replace(spec, serverfi=refused))

    @pytest.mark.parametrize(
        "model, params",
        [
            ("serverfi", ServerFiParams(
                k=4, n0=40, alpha=1.05, staking_share=0.01, payoff_horizon=5)),
            ("retention", RetentionParams(n0=40, alpha=1.03, tolerance_min=1, tolerance_max=3)),
        ],
        ids=["serverfi", "retention"],
    )
    def test_store_allocates_within_the_budgeted_factor(self, model, params):
        # churn leaves the peak's buffer and a spare: more than the live
        # columns, never more than the budget's factor of the peak
        module = harness.MODELS[model]
        state = module.new_state(params, EconParams())
        rng = derive_stream(8, 0)
        peak = departures = 0
        for _ in range(80):
            record = step_record(module, module.step(state, rng)[1])
            peak = max(peak, record.active_players)
            departures += record.departures
            assert state.nbytes <= STORE_FACTOR * 8 * module.state_columns(params) * peak
        assert departures > 0 and state.nbytes > 8 * module.state_columns(params) * peak


class TestModelRegistry:
    @pytest.mark.parametrize(
        "model, params",
        [("serverfi", ServerFiParams(k=k, n0=7)) for k in (1, 8, 64)]
        + [("retention", RetentionParams(window=w, n0=7)) for w in (1, 5, 200)],
        ids=["k1", "k8", "k64", "window1", "window5", "window200"],
    )
    def test_state_columns_counts_every_per_player_entry(self, model, params):
        # the run budget prices a player at 8 bytes per state column
        module = harness.MODELS[model]
        state, _ = module.step(module.new_state(params, EconParams()), derive_stream(0, 0))
        n = state.active_players
        columns = [value for value in vars(state).values() if isinstance(value, np.ndarray)]
        assert n > 0
        assert all(column.itemsize == 8 for column in columns)
        assert sum(column.size for column in columns) == module.state_columns(params) * n

    def test_run_once_looks_up_the_step_at_call_time(self, monkeypatch):
        calls = []
        original = serverfi.step

        def counted(state, rng):
            calls.append(state.iteration)
            return original(state, rng)

        monkeypatch.setattr(serverfi, "step", counted)
        run_once(dataclasses.replace(SMALL_SERVERFI, iterations=3), 0)
        assert calls == [0, 1, 2]


class TestRunOnce:
    def test_record_count_and_numbering(self):
        records = run_once(dataclasses.replace(SMALL_SERVERFI, iterations=3), 0)
        assert [r.iteration for r in records] == [1, 2, 3]

    def test_pure_function_of_inputs(self):
        assert run_once(SMALL_SERVERFI, 1) == run_once(SMALL_SERVERFI, 1)

    def test_invalid_spec_rejected_before_stepping(self):
        with pytest.raises(ValueError, match="iterations"):
            run_once(dataclasses.replace(SMALL_SERVERFI, iterations=0), 0)

    def test_repeat_index_bounds(self):
        with pytest.raises(ValueError, match="repeat_index"):
            run_once(SMALL_SERVERFI, 4)
        with pytest.raises(ValueError, match="repeat_index"):
            run_once(SMALL_SERVERFI, -1)

    def test_different_repeats_differ(self):
        assert run_once(SMALL_SERVERFI, 0) != run_once(SMALL_SERVERFI, 1)


class TestAggregate:
    def test_pointwise_statistics(self):
        results = [_repeat((1, 1.0, 2)), _repeat((1, 2.0, 4)), _repeat((1, 3.0, 6))]
        series = aggregate(results)
        assert series.mean_total_value == [2.0]
        assert series.min_total_value == [1.0]
        assert series.max_total_value == [3.0]
        assert series.mean_active_players == [4.0]

    def test_single_repeat_degenerate_band(self):
        series = aggregate([run_once(SMALL_SERVERFI, 0)])
        assert series.mean_total_value == series.min_total_value
        assert series.mean_total_value == series.max_total_value

    def test_order_independence(self):
        results = [run_once(SMALL_SERVERFI, r) for r in range(4)]
        forward = aggregate(results)
        backward = aggregate(list(reversed(results)))
        assert forward == backward

    def test_length_mismatch_names_offender(self):
        results = [_repeat((1, 1.0, 0)), _repeat((1, 1.0, 0), (2, 1.0, 0))]
        with pytest.raises(ValueError, match="repeat 1 has 2 records, expected 1"):
            aggregate(results)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestRunExperiment:
    @pytest.mark.parametrize("spec", [SMALL_SERVERFI, SMALL_RETENTION])
    def test_equals_composition_of_run_once(self, spec):
        series, results = run_experiment(spec)
        assert results == [run_once(spec, r) for r in range(spec.repeats)]
        assert series == aggregate(results)

    @pytest.mark.parametrize("spec", [SMALL_SERVERFI, SMALL_RETENTION])
    def test_serial_and_parallel_identical(self, spec):
        serial, raw_serial = run_experiment(spec, workers=1)
        parallel, raw_parallel = run_experiment(spec, workers=2)
        assert serial == parallel
        assert raw_serial == raw_parallel

    def test_band_sanity(self):
        series, _ = run_experiment(SMALL_RETENTION)
        for idx in range(len(series)):
            assert (
                series.min_total_value[idx]
                <= series.mean_total_value[idx]
                <= series.max_total_value[idx]
            )

    def test_seed_changes_series(self):
        a, _ = run_experiment(SMALL_SERVERFI)
        b, _ = run_experiment(dataclasses.replace(SMALL_SERVERFI, master_seed=43))
        assert len(a) == len(b)
        assert a != b

    def test_rerun_reproducible(self):
        assert run_experiment(SMALL_RETENTION) == run_experiment(SMALL_RETENTION)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(SMALL_SERVERFI, workers=0)

    @pytest.mark.parametrize("repeats, cpus, expected", [(5, 3, 3), (2, 8, 2)])
    def test_pool_has_at_most_one_process_per_repeat_and_cpu(
        self, monkeypatch, repeats, cpus, expected
    ):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        spec = dataclasses.replace(SMALL_RETENTION, repeats=repeats)
        assert run_experiment(spec, workers=2**64) == run_experiment(spec)
        assert sizes == [expected]


class TestAggregateSeriesShape:
    def test_length(self):
        series = AggregateSeries([1.0], [1.0], [1.0], [0.0])
        assert len(series) == 1
