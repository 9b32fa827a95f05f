"""Experiment orchestration: repeats, aggregation, reproducibility.

An experiment is ``repeats`` independent runs of ``iterations`` steps each.
Every repeat derives its own random stream from (master_seed, repeat_index),
so results are a pure function of the ExperimentSpec and can be computed
serially or in a process pool with bit-identical output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import retention, serverfi
from .core import (
    MAX_SEED,
    RECORD_FIELDS,
    STORE_FACTOR,
    EconParams,
    RepeatRecords,
    derive_stream,
)

# model modules: new_state(params, econ), state_columns(params), with params
# the ExperimentSpec field of that name, COUNTERS, step(state, rng), which
# returns the state and a tuple of RECORD_FIELDS + COUNTERS values, and
# coast(state, rng, rows), which fills the leading rows of the table view
# rows exactly as the next steps would, leaving the state and stream where
# they would, and returns how many it filled (0 when a row needs a step)
MODELS = {"serverfi": serverfi, "retention": retention}

# Run budget, checked before simulating. MAX_STATE_BYTES bounds what the
# population's column store may allocate (the step's temporaries take a few
# times its live columns); MAX_RECORDS bounds the iteration x repeat rows of
# the RepeatRecords tables an experiment holds, 8 bytes per column each (13
# columns for serverfi, 8 for retention: at most 104 MiB).
MAX_STATE_BYTES = 2**30
MAX_RECORDS = 2**20


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one experiment, validated when it is built.

    Both parameter blocks are always present; ``model`` selects which one
    drives the simulation. The headline protocol is 500 iterations repeated
    100 times. A ``dataclasses.replace`` copy is validated too.
    """

    model: str = "serverfi"
    econ: EconParams = field(default_factory=EconParams)
    serverfi: serverfi.ServerFiParams = field(default_factory=serverfi.ServerFiParams)
    retention: retention.RetentionParams = field(default_factory=retention.RetentionParams)
    iterations: int = 500
    repeats: int = 100
    master_seed: int = 0

    def __post_init__(self) -> None:
        validate_spec(self)


@dataclass(frozen=True)
class AggregateSeries:
    """Per-iteration statistics across repeats: the band and the mean line.

    Field ``<statistic>_<column>`` holds, per iteration (position 0 holds
    iteration 1), that statistic across repeats of the RepeatRecords
    column: ``min``/``max`` bound the band and ``mean`` is the line.
    The fields, in order, are the series CSV's columns after ``iteration``
    (see ``analysis.CSV_HEADER``).
    """

    mean_total_value: List[float]
    min_total_value: List[float]
    max_total_value: List[float]
    mean_active_players: List[float]

    def __len__(self) -> int:
        return len(self.mean_total_value)


def validate_spec(spec: ExperimentSpec) -> None:
    """Reject an invalid spec with a field-path error message."""
    if not isinstance(spec.model, str) or spec.model not in MODELS:
        raise ValueError("model must be 'serverfi' or 'retention'")
    spec.econ.validate()
    spec.serverfi.validate()
    spec.retention.validate()
    if spec.iterations < 1:
        raise ValueError("iterations must be at least 1")
    if spec.repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not 0 <= spec.master_seed < MAX_SEED:
        raise ValueError("master_seed must be a non-negative 64-bit integer")
    _check_budget(spec)


def _check_budget(spec: ExperimentSpec) -> None:
    """Refuse a run whose state or records would exceed the run budget.

    Cohorts shrink geometrically, so at most ``n0 * min(iterations,
    ceil(alpha / (alpha - 1)))`` players ever join. Each holds 8 bytes per
    state column, ``state_columns(params)`` of them, and the column store
    allocates up to ``STORE_FACTOR`` (4) times that per player: buffers
    grown by doubling, plus the spare buffer it compacts into. The budget
    counts at least one player, so an oversized ring is refused even with
    no arrivals.
    """
    if spec.iterations * spec.repeats > MAX_RECORDS:
        raise ValueError(
            f"run budget exceeded: iterations x repeats = {spec.iterations} x {spec.repeats} "
            f"is more than {MAX_RECORDS} records"
        )
    params = getattr(spec, spec.model)
    player_bytes = STORE_FACTOR * 8 * MODELS[spec.model].state_columns(params)
    cohorts = min(spec.iterations, math.ceil(params.alpha / (params.alpha - 1)))
    players = max(params.n0 * cohorts, 1)
    if players * player_bytes > MAX_STATE_BYTES:
        raise ValueError(
            f"run budget exceeded: up to {players} {spec.model} players x {player_bytes} "
            f"bytes of state is more than {MAX_STATE_BYTES} bytes"
        )


def run_once(spec: ExperimentSpec, repeat_index: int) -> RepeatRecords:
    """Run one repeat; output is a pure function of (spec, repeat_index).

    Row ``t`` of the returned table is the row the step returned for
    iteration ``t + 1``, or that the model's ``coast`` filled in its place
    after a step. ``spec`` was checked when it was built. A float overflow
    in a step is a ValueError naming repeat and iteration.
    """
    if not 0 <= repeat_index < spec.repeats:
        raise ValueError("repeat_index must be in [0, repeats)")
    rng = derive_stream(spec.master_seed, repeat_index)
    model = MODELS[spec.model]
    state = model.new_state(getattr(spec, spec.model), spec.econ)
    table = np.empty((spec.iterations, len(RECORD_FIELDS) + len(model.COUNTERS)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            t = 0
            while t < spec.iterations:
                state, table[t] = model.step(state, rng)
                t += 1
                t += model.coast(state, rng, table[t:])
    except FloatingPointError as exc:
        raise ValueError(
            f"repeat {repeat_index}, iteration {state.iteration + 1}: a value overflows "
            f"a float ({exc}); lower the econ.productivity_* values"
        ) from None
    return RepeatRecords(table, model.COUNTERS)


def aggregate(tables: Sequence[RepeatRecords]) -> AggregateSeries:
    """Pointwise mean/min/max across repeats, one RepeatRecords table each.

    Means use exact compensated summation, so the outcome does not depend on
    the order repeats are supplied in. A sum too large for a float raises
    ValueError.
    """
    if not tables:
        raise ValueError("aggregate requires at least one repeat")
    length = len(tables[0])
    for r, table in enumerate(tables):
        if len(table) != length:
            raise ValueError(
                f"repeat {r} has {len(table)} records, expected {length}"
            )
    statistics = {"mean": lambda values: math.fsum(values) / len(values), "min": min, "max": max}
    columns: Dict[str, List[float]] = {}
    for series_field in fields(AggregateSeries):
        statistic, attribute = series_field.name.split("_", 1)
        # one list of plain floats per iteration, one value per repeat
        per_iteration = np.column_stack([t.column(attribute) for t in tables]).tolist()
        column: List[float] = []
        for idx, values in enumerate(per_iteration):
            try:
                column.append(statistics[statistic](values))
            except OverflowError:
                raise ValueError(
                    f"the {statistic} {attribute.replace('_', ' ')} of iteration {idx + 1} "
                    "overflows a float"
                ) from None
        columns[series_field.name] = column
    return AggregateSeries(**columns)


def _run_repeat(args: Tuple[ExperimentSpec, int]) -> RepeatRecords:
    """Run a ``(spec, repeat_index)`` job by the module-level ``run_once``, which may be wrapped."""
    spec, repeat_index = args
    return run_once(spec, repeat_index)


def run_experiment(
    spec: ExperimentSpec, workers: int = 1
) -> Tuple[AggregateSeries, List[RepeatRecords]]:
    """Run all repeats of a spec, which was checked when built, and aggregate them.

    Returns the series and one RepeatRecords table per repeat, in repeat
    order. ``workers`` > 1 fans repeats out to a process pool, which ships
    each repeat back as its table; scheduling cannot change the result
    because each repeat owns an independent stream and aggregation is keyed
    by repeat index. The pool has at most one process per repeat and per
    CPU: more would only wait. If the run fails or is interrupted, the
    pool cancels its pending repeats and waits for the running ones before
    the exception propagates; its workers ignore SIGINT.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, spec.repeats, os.cpu_count() or 1)
    jobs = [(spec, r) for r in range(spec.repeats)]
    if workers == 1:
        results = list(map(_run_repeat, jobs))
    else:
        import signal
        from concurrent.futures import ProcessPoolExecutor

        # workers fork from here: importing the stream module first means no
        # worker imports it in its first repeat
        import numpy.random  # noqa: F401

        # workers ignore Ctrl-C, so an idle one prints no traceback: the
        # parent takes it, and an exception leaving pool.map's iterator
        # cancels the repeats not yet handed to a worker
        with ProcessPoolExecutor(
            workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
        ) as pool:
            results = list(pool.map(_run_repeat, jobs))
    return aggregate(results), results
