"""RepeatRecords: one repeat's records as a float64 table, exact, with read-only columns."""

import dataclasses
import gc
import math
import pickle
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest

from gamefi_sim.core import RECORD_FIELDS, IterationRecord, RepeatRecords, derive_stream
from gamefi_sim.harness import (
    MODELS,
    AggregateSeries,
    ExperimentSpec,
    aggregate,
    run_experiment,
    run_once,
)
from gamefi_sim.retention import RetentionParams
from gamefi_sim.serverfi import ServerFiParams

SPECS = {
    "serverfi": ExperimentSpec(
        model="serverfi", serverfi=ServerFiParams(n0=20, alpha=1.05), iterations=40,
        repeats=3, master_seed=7,
    ),
    "retention": ExperimentSpec(
        model="retention", retention=RetentionParams(n0=20, alpha=1.05), iterations=40,
        repeats=3, master_seed=7,
    ),
}
EXTRA_KEYS = {
    "serverfi": ("nfts_minted", "staked_total", "per_nft_reward", "draws", "inventory_total",
                 "fragments_departed", "draw_credit_total", "credit_departed"),
    "retention": ("payout_total", "winner_count", "window_total_sum"),
}
INT_FIELDS = ("iteration", "active_players", "joins", "departures")


def _step_records(spec):
    """Repeat 0 of ``spec``, stepped by hand, one IterationRecord built from each row."""
    module = MODELS[spec.model]
    state = module.new_state(getattr(spec, spec.model), spec.econ)
    rng = derive_stream(spec.master_seed, 0)
    records = []
    for _ in range(spec.iterations):
        row = module.step(state, rng)
        records.append(IterationRecord(*row[:5], dict(zip(module.COUNTERS, map(float, row[5:])))))
    return records


def _reference_aggregate(results):
    """Field by field from the records, as aggregate computed before the tables."""
    statistics = {"mean": lambda values: math.fsum(values) / len(values), "min": min, "max": max}
    columns = {}
    for series_field in dataclasses.fields(AggregateSeries):
        statistic, attribute = series_field.name.split("_", 1)
        per_iteration = zip(*[list(map(attrgetter(attribute), records)) for records in results])
        columns[series_field.name] = [statistics[statistic](values) for values in per_iteration]
    return AggregateSeries(**columns)


@pytest.fixture(params=sorted(SPECS))
def model(request):
    return request.param


class TestRoundTrip:
    def test_run_once_builds_no_record(self, model, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("an IterationRecord was built")

        with monkeypatch.context() as patch:
            patch.setattr(IterationRecord, "__init__", refuse)
            view = run_once(SPECS[model], 0)
        assert type(view) is RepeatRecords
        assert view == _step_records(SPECS[model])

    def test_view_equals_the_records_it_was_packed_from(self, model):
        records = _step_records(SPECS[model])
        width = len(RECORD_FIELDS) + len(EXTRA_KEYS[model])
        view = RepeatRecords(np.empty((len(records), width)), EXTRA_KEYS[model])
        for t, record in enumerate(records):
            view[t] = record
        assert view == run_once(SPECS[model], 0)
        assert len(view) == len(records)
        assert view == records
        assert records == view
        assert list(view) == records
        assert not view != records
        assert repr(list(view)) == repr(records)

    def test_columns_are_the_fields_then_the_extra_keys_in_step_order(self, model):
        view = run_once(SPECS[model], 0)
        assert RECORD_FIELDS == tuple(f.name for f in dataclasses.fields(IterationRecord))[:-1]
        assert MODELS[model].COUNTERS == view.counters == EXTRA_KEYS[model]
        assert view.columns == RECORD_FIELDS + EXTRA_KEYS[model]
        assert all(tuple(record.extra) == EXTRA_KEYS[model] for record in view)

    def test_int_fields_come_back_as_ints(self, model):
        for record in run_once(SPECS[model], 0):
            assert all(type(getattr(record, name)) is int for name in INT_FIELDS)
            assert type(record.total_value) is float
            assert all(type(value) is float for value in record.extra.values())

    def test_different_repeats_differ(self, model):
        first, second = (run_once(SPECS[model], r) for r in (0, 1))
        assert first != second
        assert first != list(second)

    def test_negative_zero_and_the_largest_exact_int_survive(self):
        record = IterationRecord(1, -0.0, 3, 2**53 - 1, 0, {"reward": -0.0, "count": 2.0**53})
        view = RepeatRecords(np.ones((2, 7)), ("reward", "count"))
        view[-1] = record
        item = view[1]
        assert repr(item) == repr(record)
        assert view[0] == IterationRecord(1, 1.0, 1, 1, 1, {"reward": 1.0, "count": 1.0})
        assert math.copysign(1.0, item.total_value) == -1.0
        assert math.copysign(1.0, item.extra["reward"]) == -1.0
        assert item.joins == 2**53 - 1 and type(item.joins) is int


class TestSequence:
    def test_negative_indices_and_slices(self, model):
        view = run_once(SPECS[model], 0)
        records = list(view)
        n = len(records)
        assert view[-1] == records[-1]
        assert view[-n] == records[0]
        assert view[np.int64(3)] == records[3]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                view[index]
        for part in (slice(None), slice(5, 12), slice(-3, None), slice(None, None, -4),
                     slice(12, 5), slice(2, 100, 7)):
            assert type(view[part]) is list
            assert repr(view[part]) == repr(records[part])
        assert view.index(records[7]) == 7
        assert records[7] in view

    def test_empty_repeat(self):
        view = RepeatRecords(np.empty((0, len(RECORD_FIELDS))), ())
        assert len(view) == 0
        assert view == [] and [] == view
        assert list(view) == [] and view[:] == []
        assert view.columns == RECORD_FIELDS
        with pytest.raises(IndexError):
            view[0]

    def test_pickle_round_trip(self, model):
        view = run_once(SPECS[model], 0)
        copy = pickle.loads(pickle.dumps(view))
        assert type(copy) is RepeatRecords
        assert copy == view
        assert repr(list(copy)) == repr(list(view))
        assert copy.columns == view.columns

    def test_read_only_and_unhashable(self, model):
        view = run_once(SPECS[model], 0)
        with pytest.raises(ValueError):
            view.column("total_value")[0] = 1.0
        with pytest.raises(TypeError):
            hash(view)

    def test_column_views_refuse_writes_but_see_assigned_records(self, model):
        view = run_once(SPECS[model], 0)
        columns = [view.column(name) for name in view.columns]
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                column += 1.0
        record = view[3]
        view[3] = dataclasses.replace(record, joins=record.joins + 1)
        assert columns[RECORD_FIELDS.index("joins")][3] == record.joins + 1
        assert view[3] == dataclasses.replace(record, joins=record.joins + 1)

    def test_only_lists_and_tables_compare_equal(self, model):
        view = run_once(SPECS[model], 0)
        records = list(view)
        assert view != tuple(records)
        assert view != records[:-1]
        assert view != "records"

    @pytest.mark.parametrize(
        "extra",
        [{"a": 1.0}, {"b": 1.0, "a": 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0}, {}],
        ids=["missing", "reordered", "added", "empty"],
    )
    def test_extra_keys_must_match_the_first_record(self, extra):
        records = [IterationRecord(1, 1.0, 1, 1, 0, {"a": 1.0, "b": 2.0}),
                   IterationRecord(2, 1.0, 1, 0, 0, extra)]
        view = RepeatRecords(np.zeros((2, 7)), tuple(records[0].extra))
        view[0] = records[0]
        with pytest.raises(ValueError, match="record 1 has extra keys"):
            view[1] = records[1]
        assert view[0] == records[0]
        assert view[1] == IterationRecord(0, 0.0, 0, 0, 0, {"a": 0.0, "b": 0.0})


class TestHarness:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_experiment_returns_one_table_per_repeat(self, model, workers):
        spec = SPECS[model]
        _, results = run_experiment(spec, workers=workers)
        assert all(type(result) is RepeatRecords for result in results)
        assert results == [run_once(spec, r) for r in range(spec.repeats)]

    def test_aggregate_equals_the_field_by_field_reference(self, model):
        spec = SPECS[model]
        tables = [run_once(spec, r) for r in range(spec.repeats)]
        assert repr(aggregate(tables)) == repr(_reference_aggregate(tables))

    def test_results_hold_at_most_16_bytes_per_column_per_record(self, model):
        # a table costs 8 bytes per column per record; an IterationRecord
        # with its extra dict held about 0.4-0.6 KiB
        spec = dataclasses.replace(ExperimentSpec(model=model), iterations=200, repeats=8)
        run_experiment(dataclasses.replace(spec, repeats=1))  # warm caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = run_experiment(spec)[1]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        records = spec.iterations * spec.repeats
        columns = len(dataclasses.fields(IterationRecord)) - 1 + len(results[0][0].extra)
        assert retained <= 16 * columns * records, f"{retained / records:.0f} bytes per record"
