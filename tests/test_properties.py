"""Differential and metamorphic properties of both steps over drawn specs.

Differential: for small valid specs drawn by Hypothesis, each vectorised
step equals its per-player scalar reference from ``reference``, with the
same exactness as the fixed-parameter tests in ``test_steps``. Serverfi
records and final columns are bit-exact; retention is exact except
``payout_total``, compared at ``rel=1e-9``. Windows cover numpy's summation orders (1-7
rows added in order, 8, 9-128 with 8 accumulators, 129 up split in two),
and a sigma of 0 gives exact ties.

Metamorphic: scaling ``productivity_init_mean``, ``productivity_floor``
and ``lambda`` by ``2**j`` keeps every count of a run identical and
multiplies every value counter by exactly ``2**j``. Every operation the
steps make (products, quotients, sums, comparisons, floors of ratios) is
exact under a power-of-two scale away from overflow and subnormals, so
this property draws each reward share as 0 or from ``[2**-64, 1]``; the
differential properties draw shares from all of ``[0, 1]``.

Representation: after every serverfi step, ``staked`` is the per-player
minimum of the cumulative ``by_type`` counts, every player's inventory
lacks some type, and the recorded totals match the columns.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamefi_sim import retention, serverfi  # noqa: E402
from gamefi_sim.core import RECORD_FIELDS, EconParams, derive_stream  # noqa: E402
from gamefi_sim.harness import ExperimentSpec, run_once  # noqa: E402
from gamefi_sim.retention import RetentionParams  # noqa: E402
from gamefi_sim.serverfi import ServerFiParams  # noqa: E402
from reference import (  # noqa: E402
    reference_retention_run,
    run_serverfi_against_reference,
    step_record,
    step_records,
)

SIGMAS = st.sampled_from([0.0, 0.1, 0.5, 1.0])
ECON = st.builds(
    EconParams,
    productivity_init_mean=st.sampled_from([0.3, 1.0, 2.5]),
    productivity_init_sigma=SIGMAS,
    mutation_sigma=SIGMAS,
    productivity_floor=st.sampled_from([0.01, 0.5, 1.0]),
)
SEEDS = st.integers(0, 2**32)
ALPHAS = st.floats(1.01, 3.0)
SERVERFI = st.builds(
    ServerFiParams,
    lam=st.floats(1.001, 6.0),
    k=st.integers(1, 64),
    n0=st.integers(0, 30),
    alpha=ALPHAS,
    staking_share=st.floats(0.0, 1.0),
    payoff_horizon=st.integers(1, 100),
)
# numpy adds a row of fewer than 8 entries in order, uses 8 accumulators up
# to 128 entries and splits longer rows in two
WINDOWS = st.one_of(st.integers(1, 7), st.just(8), st.integers(9, 128), st.integers(129, 300))


@st.composite
def retention_params(draw, n0=st.integers(0, 30), pool_share=st.floats(0.0, 1.0)):
    tolerance_min = draw(st.integers(1, 12))
    return RetentionParams(
        top_fraction=draw(st.one_of(st.floats(0.01, 1.0), st.just(1.0))),
        pool_share=draw(pool_share),
        window=draw(WINDOWS),
        tolerance_min=tolerance_min,
        tolerance_max=draw(st.integers(tolerance_min, tolerance_min + 10)),
        n0=draw(n0),
        alpha=draw(ALPHAS),
        equal_split=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(params=SERVERFI, econ=ECON, seed=SEEDS, iterations=st.integers(1, 40))
def test_serverfi_step_equals_reference(params, econ, seed, iterations):
    run_serverfi_against_reference(params, econ, seed, iterations)


@settings(max_examples=100, deadline=None)
@given(params=SERVERFI, econ=ECON, seed=SEEDS, iterations=st.integers(1, 40))
def test_serverfi_staked_is_the_minimum_of_cumulative_counts(params, econ, seed, iterations):
    state = serverfi.new_state(params, econ)
    rng = derive_stream(seed, 0)
    for _ in range(iterations):
        record = step_record(serverfi, serverfi.step(state, rng)[1])
        counts = state.counts
        assert state.staked.tolist() == state.by_type.min(axis=0).tolist()
        assert (counts.min(axis=1) == 0).all()
        assert record.extra["inventory_total"] == counts.sum()
        assert record.extra["staked_total"] == state.staked.sum()


@settings(max_examples=100, deadline=None)
@given(params=retention_params(), econ=ECON, seed=SEEDS, iterations=st.integers(1, 40))
def test_retention_step_equals_reference(params, econ, seed, iterations):
    state = retention.new_state(params, econ)
    rng = derive_stream(seed, 0)
    records = step_records(retention, [retention.step(state, rng)[1] for _ in range(iterations)])

    ref_records, ref_players = reference_retention_run(params, econ, seed, iterations)
    assert len(records) == len(ref_records)
    for record, (i, total, joins, departures, winners, paid) in zip(records, ref_records):
        assert record.iteration == i
        assert record.total_value == total
        assert record.joins == joins
        assert record.departures == departures
        assert record.extra["winner_count"] == winners
        assert record.extra["payout_total"] == pytest.approx(paid, rel=1e-9)
    assert state.ids.tolist() == [p.id for p in ref_players]
    assert state.productivity.tolist() == [p.productivity for p in ref_players]
    assert state.misses.tolist() == [p.consecutive_misses for p in ref_players]
    assert state.tolerance.tolist() == [p.tolerance for p in ref_players]


# shares for the scaling relation: 0 or normal, since a payout or reward
# that is subnormal does not scale exactly by 2**j
SCALABLE_SHARES = st.one_of(st.just(0.0), st.floats(2.0**-64, 1.0))
# the record fields and extra counters that carry value, so scale with it;
# every other field is a count
VALUE_FIELDS = {
    "serverfi": {"total_value", "per_nft_reward", "draw_credit_total", "credit_departed"},
    "retention": {"total_value", "payout_total", "window_total_sum"},
}


@st.composite
def scalable_specs(draw):
    model = draw(st.sampled_from(["serverfi", "retention"]))
    base = ExperimentSpec(
        model=model,
        econ=draw(ECON),
        serverfi=ServerFiParams(
            lam=draw(st.floats(1.001, 6.0)),
            k=draw(st.integers(1, 64)),
            n0=draw(st.integers(0, 200)),
            alpha=draw(st.floats(1.01, 1.2)),
            staking_share=draw(SCALABLE_SHARES),
        ),
        retention=draw(retention_params(n0=st.integers(0, 200), pool_share=SCALABLE_SHARES)),
        iterations=draw(st.integers(1, 80)),
        repeats=1,
        master_seed=draw(SEEDS),
    )
    return base, draw(st.integers(1, 64))


def scaled(spec, factor):
    econ = dataclasses.replace(
        spec.econ,
        productivity_init_mean=spec.econ.productivity_init_mean * factor,
        productivity_floor=spec.econ.productivity_floor * factor,
    )
    params = dataclasses.replace(spec.serverfi, lam=spec.serverfi.lam * factor)
    return dataclasses.replace(spec, econ=econ, serverfi=params)


@settings(max_examples=60, deadline=None)
@given(case=scalable_specs())
def test_power_of_two_scale_keeps_counts_and_scales_values(case):
    spec, j = case
    factor = 2.0**j
    base = run_once(spec, 0)
    big = run_once(scaled(spec, factor), 0)
    assert len(big) == len(base)
    value_fields = VALUE_FIELDS[spec.model]
    for small, large in zip(base, big):
        assert large.extra.keys() == small.extra.keys()
        fields = {name: getattr(small, name) for name in RECORD_FIELDS} | small.extra
        large_fields = {name: getattr(large, name) for name in RECORD_FIELDS} | large.extra
        for name, value in fields.items():
            expected = value * factor if name in value_fields else value
            assert large_fields[name] == expected, (name, small.iteration)
