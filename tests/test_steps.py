"""World-step tests for both economies.

The vectorized steps must reproduce the scalar reference runs of
``reference.py``: bit-exactly for the synthesis economy, and up to
summation rounding for the retention economy's window totals. Where
``retention.coast`` fills a repeat's one-player tail in place of the steps,
it must match them bit for bit.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gamefi_sim import retention, serverfi
from gamefi_sim.core import RECORD_FIELDS, EconParams, derive_stream
from gamefi_sim.harness import ExperimentSpec, run_once
from gamefi_sim.retention import RetentionParams
from gamefi_sim.serverfi import ServerFiParams
from reference import ServerFiPlayer, draws_for_contribution, expected_remaining_cost
from reference import reference_retention_run, should_churn
from reference import run_coast_against_steps, run_serverfi_against_reference
from reference import step_record, step_records


def serverfi_digest(params, econ, seed, iterations):
    """sha256 of a serverfi run: every record, the final ids, productivity,
    draw credit, counts and staked columns (with dtypes and shapes) and the
    next stream value."""
    state = serverfi.new_state(params, econ)
    rng = derive_stream(seed, 0)
    rows = [serverfi.step(state, rng)[1] for _ in range(iterations)]
    digest = hashlib.sha256(repr(list(step_records(serverfi, rows))).encode())
    for column in (state.ids, state.productivity, state.draw_credit, state.counts, state.staked):
        digest.update(f"{column.dtype}{column.shape}".encode())
        digest.update(column.tobytes())
    digest.update(repr(rng.random()).encode())
    return digest.hexdigest()


def retention_digest(params, econ, seed, iterations):
    """sha256 of a retention run: every record, the final ids, productivity,
    tolerance and misses columns (with dtypes) and the next stream value."""
    state = retention.new_state(params, econ)
    rng = derive_stream(seed, 0)
    rows = [retention.step(state, rng)[1] for _ in range(iterations)]
    digest = hashlib.sha256(repr(list(step_records(retention, rows))).encode())
    for column in (state.ids, state.productivity, state.tolerance, state.misses):
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    digest.update(repr(rng.random()).encode())
    return digest.hexdigest()


def one_player_state(productivity, econ=EconParams(), **params):
    """A serverfi state with no arrivals and one joined player of ``productivity``."""
    state = serverfi.new_state(ServerFiParams(n0=0, **params), econ)
    state.join(np.array([productivity]))
    return state


class TestServerFiStep:
    def test_single_player_mints_with_one_fragment_type(self):
        # credit reaches 2.0 on the second iteration; with k=1 every draw
        # completes a set
        params = ServerFiParams(lam=2.0, k=1, n0=1, alpha=1.02)
        econ = EconParams(productivity_init_sigma=0.0, mutation_sigma=0.0)
        state = serverfi.new_state(params, econ)
        rng = derive_stream(0, 0)
        serverfi.step(state, rng)
        assert int(state.staked.sum()) == 0
        record = step_record(serverfi, serverfi.step(state, rng)[1])
        assert int(state.staked.sum()) >= 1
        assert record.extra["nfts_minted"] >= 1

    def test_empty_world_yields_zero_records(self):
        params = ServerFiParams(n0=0)
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(1, 0)
        for i in range(1, 6):
            record = step_record(serverfi, serverfi.step(state, rng)[1])
            assert record.iteration == i
            assert record.total_value == 0.0
            assert record.active_players == 0

    def test_deterministic_with_fixed_seed(self):
        params = ServerFiParams(n0=30, alpha=1.05)
        econ = EconParams()

        def run():
            state = serverfi.new_state(params, econ)
            rng = derive_stream(3, 0)
            return [serverfi.step(state, rng)[1] for _ in range(40)]

        assert run() == run()

    def test_no_history_means_open_gate_and_no_churn(self):
        # before the first payout event rational agents have nothing to
        # project from: cohorts keep joining and nobody leaves
        params = ServerFiParams(lam=2.0, k=8, n0=20, alpha=1.05)
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(4, 0)
        for _ in range(10):
            record = step_record(serverfi, serverfi.step(state, rng)[1])
            if record.extra["nfts_minted"] > 0:
                break
            assert record.departures == 0
            assert record.joins == serverfi.arrivals(
                record.iteration, params.n0, params.alpha, True
            )

    def test_ids_unique_and_never_reused(self):
        params = ServerFiParams(n0=25, alpha=1.1, staking_share=0.01, payoff_horizon=1)
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(5, 0)
        departed = set()
        previous = set()
        for _ in range(60):
            serverfi.step(state, rng)
            current = state.ids.tolist()
            assert len(current) == len(set(current))
            assert max(current, default=-1) < state.next_id
            departed |= previous - set(current)
            assert not (departed & set(current))
            previous = set(current)
        assert departed

    def test_matches_scalar_reference(self):
        # lam deliberately not a power of two to exercise remainder paths
        params = ServerFiParams(
            lam=1.5, k=3, n0=12, alpha=1.1, staking_share=0.1, payoff_horizon=50
        )
        run_serverfi_against_reference(params, EconParams(), 123, 60)

    def test_matches_scalar_reference_with_churn_pressure(self):
        # tiny staking share forces the gate shut and non-holders out once
        # payouts begin, exercising the churn path of both implementations
        params = ServerFiParams(
            lam=1.5, k=3, n0=15, alpha=1.05, staking_share=0.001, payoff_horizon=5
        )
        econ = EconParams()
        seed = 77

        records, _ = run_serverfi_against_reference(params, econ, seed, 50)
        assert sum(r.departures for r in records) > 0

    def test_matches_scalar_reference_across_both_churn_branches(self):
        # the projected reward hovers around the cost of a full set, so some
        # iterations skip the missing-type scan (nobody can afford to leave)
        # and others run it
        params = ServerFiParams(
            lam=1.5, k=4, n0=12, alpha=1.05, staking_share=0.03, payoff_horizon=50
        )
        records, rewards = run_serverfi_against_reference(params, EconParams(), 31, 60)
        full_set = expected_remaining_cost(params.k, params.k, params.lam)
        projected = [r * params.payoff_horizon for r in rewards if r is not None]
        scanned = sum(full_set > payoff for payoff in projected)
        skipped = len(projected) - scanned
        assert scanned > 0 and skipped > 0
        assert sum(r.departures for r in records) > 0

    def test_matches_scalar_reference_single_fragment_type(self):
        # k=1: every draw mints at once and counts never hold a fragment
        params = ServerFiParams(
            lam=1.5, k=1, n0=12, alpha=1.05, staking_share=0.01, payoff_horizon=5
        )
        records, _ = run_serverfi_against_reference(params, EconParams(), 19, 40)
        assert sum(r.extra["nfts_minted"] for r in records) > 0

    def test_matches_scalar_reference_when_a_row_hits_a_cell_twice(self):
        # about 40 draws per row and iteration over 2 types: every row adds
        # to the same count cell many times within one iteration
        params = ServerFiParams(lam=1.01, k=2, n0=4, alpha=1.05)
        econ = EconParams(productivity_init_mean=40.0)
        records, _ = run_serverfi_against_reference(params, econ, 23, 12)
        assert any(r.extra["draws"] > params.k * r.active_players for r in records)

    def test_overflowing_cohort_decay_joins_nobody(self):
        params = ServerFiParams(n0=30, alpha=1e300)
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(2, 0)
        joins = [step_record(serverfi, serverfi.step(state, rng)[1]).joins for _ in range(6)]
        assert joins == [30, 0, 0, 0, 0, 0]

    def test_matches_scalar_reference_while_capacity_exceeds_the_population(self):
        # the lottery scatter-adds into the flat view of by_type's
        # (k, capacity) buffer; once churn leaves survivors below capacity,
        # by_type is strided and its own reshape(-1) would be a copy
        params = ServerFiParams(
            lam=2.0, k=4, n0=40, alpha=1.05, staking_share=0.01, payoff_horizon=5
        )
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(8, 0)
        strided_lotteries = 0
        churned = False
        for _ in range(60):
            record = step_record(serverfi, serverfi.step(state, rng)[1])
            # only a join grows the capacity, so the lottery saw this one
            if churned and record.extra["draws"] and state.capacity > record.active_players:
                strided_lotteries += 1
            if 0 < state.active_players < state.capacity:
                assert not state.by_type.flags.c_contiguous
            churned = churned or (record.departures > 0 and state.active_players > 0)
        assert strided_lotteries > 0
        run_serverfi_against_reference(params, EconParams(), 8, 60)

    def test_too_many_draws_in_one_iteration_is_refused(self):
        params = ServerFiParams(k=1, n0=3)
        econ = EconParams(productivity_init_mean=1e300)
        state = serverfi.new_state(params, econ)
        with pytest.raises(ValueError, match="lottery draws"):
            serverfi.step(state, derive_stream(0, 0))

    def test_draw_limit_admits_exactly_its_count(self, monkeypatch):
        monkeypatch.setattr(serverfi, "MAX_DRAWS_PER_ITERATION", 5)
        # at lambda 2, a credit of 10.5 buys exactly 5 draws and 12.5 buys 6
        state = one_player_state(10.5, lam=2.0)
        record = step_record(serverfi, serverfi.step(state, derive_stream(0, 0))[1])
        assert record.extra["draws"] == 5
        with pytest.raises(ValueError, match="lottery draws"):
            serverfi.step(one_player_state(12.5, lam=2.0), derive_stream(0, 0))

    def test_floor_one_draw_too_many_gives_a_draw_back(self):
        # floor(c / 1.001) is 663409, but c - 663409 * 1.001 is -1.16e-10,
        # so the player draws one less and keeps a credit just under lambda
        c = 664072.4089999999
        state = one_player_state(c, EconParams(mutation_sigma=0.0), lam=1.001)
        record = step_record(serverfi, serverfi.step(state, derive_stream(0, 0))[1])
        assert math.floor(c / 1.001) == 663409
        assert draws_for_contribution(0.0, c, 1.001) == (663408, 1.0009999998835846)
        assert record.extra["draws"] == 663408
        assert state.draw_credit.tolist() == [1.0009999998835846]

    def test_floor_one_draw_too_few_takes_one_more(self):
        # floor(c / lam) is 12, but c - 12 * lam is 5.996251281828052, at
        # least lam, so the joiner draws 13 and keeps a credit of 2**-49
        lam, c = 5.99625128182805, 77.95126666376464
        params = ServerFiParams(lam=lam, n0=1)
        econ = EconParams(
            productivity_init_mean=c, productivity_init_sigma=0.0, mutation_sigma=0.0
        )
        state = serverfi.new_state(params, econ)
        record = step_record(serverfi, serverfi.step(state, derive_stream(0, 0))[1])
        assert math.floor(c / lam) == 12 and c - 12 * lam >= lam
        assert draws_for_contribution(0.0, c, lam) == (13, 1.7763568394002505e-15)
        assert record.joins == 1 and state.productivity.tolist() == [c]
        assert record.extra["draws"] == 13
        assert state.draw_credit.tolist() == [1.7763568394002505e-15]

    def test_a_cost_equal_to_the_projected_reward_does_not_churn(self):
        # one of two types missing costs 2 * 2 * H_1 = 4.0, exactly the
        # projected reward 4.0 * 1: a player leaves only on a strict excess
        state = one_player_state(0.01, k=2, lam=2.0, payoff_horizon=1)
        state.last_per_nft_reward = 4.0
        state.by_type[0, 0] = 1
        state.fragments_held = 1
        record = step_record(serverfi, serverfi.step(state, derive_stream(0, 0))[1])
        assert not should_churn(ServerFiPlayer(0, 0.01, counts=[1, 0]), 4.0, state.params)
        assert record.extra["draws"] == 0
        assert record.departures == 0 and state.ids.tolist() == [0]


# Digests of whole serverfi runs, frozen from the row-major counts and the
# dense bincount lottery that the current step replaced.
FROZEN_SERVERFI_RUNS = {
    "default": (
        {}, {}, 51, 300,
        "a48e51b2e2335928ac5446f10bebf75591ef527cc9c987da4df69d916e867816",
    ),
    "k1": (
        dict(k=1), {}, 52, 150,
        "ff60274ca6c07e8b577aa243daf2229b25f6eda1b9ef39f67438e29fb7cd75c1",
    ),
    "k64": (
        dict(k=64), {}, 53, 100,
        "9a00f86afd55f98dc06d0f7dde830fdca0aa4efdc810678e46f025c01f1b1e63",
    ),
    # about 4.5k departures, down to one player
    "heavy_churn": (
        dict(lam=7.3, k=12, staking_share=0.0), {}, 54, 150,
        "ee674225a3b3bb5d976a0f2659345d18717057023bad27c9485413ab48ca2618",
    ),
    # about 280 departures in 3 iterations, with survivors that keep drawing
    "churn_with_survivors": (
        dict(lam=2.0, k=4, n0=40, alpha=1.05, staking_share=0.03, payoff_horizon=20),
        {}, 57, 80,
        "04a7b79e1955ad568f4995664040b3f9afa67ab03978ceb3d4d9d555647139d0",
    ),
    # about 20 draws per row and iteration over 2 types
    "same_cell_twice": (
        dict(lam=1.01, k=2, n0=40), dict(productivity_init_mean=40.0), 55, 60,
        "fc23eb8236c3867d439fe77ba0154c6f0f4cf1b91b50bc49f9e36f845ee0bd8f",
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SERVERFI_RUNS))
def test_serverfi_run_matches_frozen_digest(case):
    params, econ, seed, iterations, expected = FROZEN_SERVERFI_RUNS[case]
    digest = serverfi_digest(ServerFiParams(**params), EconParams(**econ), seed, iterations)
    assert digest == expected


class TestRetentionStep:
    def test_first_iteration_five_players(self):
        params = RetentionParams(n0=5, alpha=1.02)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(6, 0)
        record = step_record(retention, retention.step(state, rng)[1])
        assert record.joins == 5
        assert record.extra["winner_count"] == 1
        assert record.extra["payout_total"] == pytest.approx(0.8 * record.total_value)

    def test_identical_productivity_breaks_ties_by_id(self):
        params = RetentionParams(n0=10, alpha=1.02, top_fraction=0.2)
        econ = EconParams(productivity_init_sigma=0.0, mutation_sigma=0.0)
        state = retention.new_state(params, econ)
        rng = derive_stream(7, 0)
        retention.step(state, rng)
        # winners reset to zero misses; with equal totals those are ids 0 and 1
        assert state.misses.tolist()[:2] == [0, 0]
        assert all(m == 1 for m in state.misses.tolist()[2:10])

    def test_empty_world_yields_zero_records(self):
        params = RetentionParams(n0=0)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(8, 0)
        for _ in range(5):
            record = step_record(retention, retention.step(state, rng)[1])
            assert record.total_value == 0.0
            assert record.active_players == 0
            assert record.extra["winner_count"] == 0

    def test_deterministic_with_fixed_seed(self):
        params = RetentionParams(n0=20, alpha=1.05)
        econ = EconParams()

        def run():
            state = retention.new_state(params, econ)
            rng = derive_stream(9, 0)
            return [retention.step(state, rng)[1] for _ in range(40)]

        assert run() == run()

    def test_departed_ids_never_return(self):
        params = RetentionParams(n0=15, alpha=1.05, tolerance_min=1, tolerance_max=3)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(10, 0)
        departed = set()
        previous = set()
        for _ in range(60):
            retention.step(state, rng)
            current = set(state.ids.tolist())
            departed |= previous - current
            assert not (departed & current)
            previous = current
        assert departed

    def test_overflowing_cohort_decay_joins_nobody(self):
        params = RetentionParams(n0=30, alpha=1e300)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(2, 0)
        joins = [step_record(retention, retention.step(state, rng)[1]).joins for _ in range(6)]
        assert joins == [30, 0, 0, 0, 0, 0]

    def test_largest_tolerances_are_drawn_in_range(self):
        params = RetentionParams(n0=50, tolerance_min=2**53 - 9, tolerance_max=2**53)
        params.validate()
        state = retention.new_state(params, EconParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            retention.step(state, derive_stream(3, 0))
        assert state.tolerance.min() >= params.tolerance_min
        assert state.tolerance.max() <= params.tolerance_max

    def test_matches_scalar_reference(self):
        params = RetentionParams(
            top_fraction=0.3,
            pool_share=0.8,
            window=3,
            tolerance_min=2,
            tolerance_max=4,
            n0=10,
            alpha=1.05,
        )
        econ = EconParams()
        seed = 321

        state = retention.new_state(params, econ)
        rng = derive_stream(seed, 0)
        records = step_records(retention, [retention.step(state, rng)[1] for _ in range(50)])

        ref_records, ref_players = reference_retention_run(params, econ, seed, 50)
        assert sum(r.departures for r in records) > 0
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


# Digests of whole retention runs, frozen from the row-major ring and the
# full lexsort ranking that the current step replaced. Each case churns
# players out (except top_fraction=1.0, where everyone always wins), and the
# windows cover numpy's sequential (<8), 8-accumulator (8-128) and split
# (>128) summation orders.
FROZEN_RETENTION_RUNS = {
    "window1": (
        dict(window=1, n0=60, alpha=1.03),
        {}, 31, 80,
        "eda3f8beb10654c6e0cc40535396448310e025bdb6a9ba8f8d3e8f7bc544fce9",
    ),
    "window5": (
        dict(window=5, n0=60, alpha=1.03),
        {}, 32, 80,
        "080537d6beacdbd94654caba5688daeabedf95a7509ed01c57d047983c7177de",
    ),
    "window8": (
        dict(window=8, n0=60, alpha=1.03),
        {}, 33, 80,
        "c8b12e605d2707b35d196541e225ab9b364f01f5af26fab76b59c8fde0eae48a",
    ),
    "window9": (
        dict(window=9, n0=60, alpha=1.03, tolerance_min=10, tolerance_max=20),
        {}, 34, 80,
        "2c748cd2df6d1b1b03e789db4653c648c61154331bf81db0191fe60278222533",
    ),
    "window17": (
        dict(window=17, n0=60, alpha=1.03, tolerance_min=10, tolerance_max=20),
        {}, 35, 80,
        "c5be6c8b865eee0934ce3e790f36211b88b32eb2a4fa564b3c8dfbe087ac7b93",
    ),
    "window130": (
        dict(window=130, n0=40, alpha=1.03, tolerance_min=30, tolerance_max=60),
        {}, 36, 160,
        "12752cc2f8856d4d2f0aebd5089064a0e4654c7bc525c4b8bfc9aa5e31882f55",
    ),
    "window200": (
        dict(window=200, n0=40, alpha=1.03, tolerance_min=30, tolerance_max=60),
        {}, 37, 230,
        "7682ac0e0032ebc1a8e30086cb7b8080c9478311bd05a6d6216dcd1417c5892c",
    ),
    "top_fraction_0.05": (
        dict(top_fraction=0.05, n0=120, alpha=1.03),
        {}, 38, 80,
        "6eba8bdfa50faa8a6f852e716f370173aa3345ac92fda84e657d1ac8bdd8da1e",
    ),
    "top_fraction_1.0": (
        dict(top_fraction=1.0, n0=60, alpha=1.03),
        {}, 39, 80,
        "dcc3cdcb8ef33008b853c75f7d3ad46ef9f2ba61ec30cb1936ab3db639cdf6e7",
    ),
    "equal_split": (
        dict(equal_split=True, n0=60, alpha=1.03),
        {}, 40, 80,
        "91ca53fb46e024b88dd095eefc08101d132ae52ea7b16189739a0d1a09388640",
    ),
    "zero_sigma_ties": (
        dict(n0=60, alpha=1.03),
        dict(productivity_init_sigma=0.0, mutation_sigma=0.0), 41, 80,
        "7f40ba3cf1d4ad6cc3499679bf46366132edb9777b17f4516378bf3c424daaba",
    ),
    "n0_3": (
        dict(n0=3, alpha=1.02, tolerance_min=1, tolerance_max=2),
        {}, 42, 80,
        "e229fa590c3c7d4e47555b6004f14131fc59c6efe77c019fb8c989e1d1ebcab4",
    ),
}


class TestRetentionBitIdentity:
    @pytest.mark.parametrize("case", sorted(FROZEN_RETENTION_RUNS))
    def test_run_matches_frozen_digest(self, case):
        params, econ, seed, iterations, expected = FROZEN_RETENTION_RUNS[case]
        digest = retention_digest(
            RetentionParams(**params), EconParams(**econ), seed, iterations
        )
        assert digest == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 10, 100, 1_000, 40_000])
    def test_top_indices_equal_full_lexsort_under_heavy_ties(self, n):
        rng = np.random.default_rng(n)
        rows = np.arange(n)
        # four distinct totals in each array (one pair -0.0 against 0.0):
        # every threshold falls inside a tie group
        signed_zero = np.array([0.0, -0.0, 1.5, 3.25])[rng.integers(0, 4, n)]
        positive = np.array([0.25, 1.5, 3.25, 7.0])[rng.integers(0, 4, n)]
        for count in sorted({1, max(1, n // 5), max(1, n // 2), n}):
            for totals in (signed_zero, positive):
                expected = np.lexsort((rows, -totals))[:count]
                winners, winner_totals = retention._top_winners(totals, count)
                assert np.flatnonzero(winners).tolist() == sorted(expected.tolist())
                # equal values; on positive totals equal bits as well
                assert winner_totals.tolist() == totals[expected].tolist()
                if totals is positive:
                    assert winner_totals.tobytes() == totals[expected].tobytes()

    def test_top_indices_equal_full_lexsort_on_distinct_totals(self):
        rng = np.random.default_rng(5)
        totals = rng.lognormal(size=5_000)
        for count in (1, 1_000, 2_500, 5_000):
            expected = np.lexsort((np.arange(5_000), -totals))[:count]
            winners, winner_totals = retention._top_winners(totals, count)
            assert np.flatnonzero(winners).tolist() == sorted(expected.tolist())
            assert winner_totals.tobytes() == totals[expected].tobytes()

    def test_ring_totals_equal_row_major_sum_for_every_window(self):
        rng = np.random.default_rng(11)
        for window in range(1, 301):
            row_major = rng.lognormal(sigma=2.0, size=(13, window))
            expected = row_major.sum(axis=1)
            got = retention._ring_totals(np.ascontiguousarray(row_major.T))
            assert got.tobytes() == expected.tobytes(), window

    @pytest.mark.parametrize("n", [1, 13, 1000])
    def test_ring_totals_of_a_buffer_view_equal_row_major_sum(self, n):
        # the step's layout: the first n columns of a (window, capacity) buffer
        rng = np.random.default_rng(n)
        for window in range(1, 301):
            buffer = rng.lognormal(sigma=2.0, size=(window, 2 * n + 3))
            ring = buffer[:, :n]
            expected = np.ascontiguousarray(ring.T).sum(axis=1)
            got = retention._ring_totals(ring)
            assert got.tobytes() == expected.tobytes(), window

    def test_ids_stay_strictly_increasing_through_churn(self):
        params = RetentionParams(n0=40, alpha=1.03, tolerance_min=1, tolerance_max=3)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(12, 0)
        departures = 0
        for _ in range(80):
            departures += step_record(retention, retention.step(state, rng)[1]).departures
            assert (np.diff(state.ids) > 0).all()
            assert state.window_matrix.shape == (params.window, state.active_players)
        assert departures > 0


# repeat 1 of this spec is down to one player after iteration 1 and coasts
# from iteration 2; its ring totals overflow at iteration 13
OVERFLOW_WITNESS = ExperimentSpec(
    model="retention",
    iterations=60,
    repeats=4,
    master_seed=2,
    retention=RetentionParams(n0=1, alpha=2.0, equal_split=True),
    econ=EconParams(productivity_init_mean=1e306, productivity_init_sigma=0.0, mutation_sigma=10.0),
)


class TestRetentionCoast:
    def test_overflow_is_reported_at_its_iteration(self):
        with pytest.raises(ValueError) as raised:
            run_once(OVERFLOW_WITNESS, 1)
        assert str(raised.value) == (
            "repeat 1, iteration 13: a value overflows a float (overflow encountered in "
            "reduce); lower the econ.productivity_* values"
        )

    def test_coast_stops_before_an_overflow_where_the_steps_are(self):
        spec = OVERFLOW_WITNESS
        coasted = retention.new_state(spec.retention, spec.econ)
        stepped = retention.new_state(spec.retention, spec.econ)
        coast_rng, step_rng = derive_stream(spec.master_seed, 1), derive_stream(spec.master_seed, 1)
        rows = np.empty((spec.iterations, len(RECORD_FIELDS) + len(retention.COUNTERS)))
        with np.errstate(over="raise", invalid="raise"):
            _, rows[0] = retention.step(coasted, coast_rng)
            assert retention.coast(coasted, coast_rng, rows[1:]) == 11
            expected = [retention.step(stepped, step_rng)[1] for _ in range(12)]
            assert rows[:12].tolist() == [list(map(float, row)) for row in expected]
            assert coasted.iteration == stepped.iteration == 12
            assert coasted.productivity.tobytes() == stepped.productivity.tobytes()
            assert coasted.window_matrix.tobytes() == stepped.window_matrix.tobytes()
            assert coasted.misses.tolist() == stepped.misses.tolist() == [0]
            assert coast_rng.bit_generator.state == step_rng.bit_generator.state
            # the coast declines the overflowing iteration, and its step raises
            assert retention.coast(coasted, coast_rng, rows[12:]) == 0
            with pytest.raises(FloatingPointError, match="overflow encountered in reduce"):
                retention.step(coasted, coast_rng)

    def test_empty_world_coasts_without_drawing(self):
        params = RetentionParams(n0=0)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(8, 0)
        before = rng.bit_generator.state
        rows = np.full((7, len(RECORD_FIELDS) + len(retention.COUNTERS)), np.nan)
        assert retention.coast(state, rng, rows) == 7
        assert state.iteration == 7
        assert rng.bit_generator.state == before
        assert rows.tolist() == [[i] + [0.0] * 7 for i in range(1, 8)]
        assert run_coast_against_steps(params, EconParams(), 8, 30) == 29

    @pytest.mark.parametrize("window", [8, 200])
    @pytest.mark.parametrize("equal_split", [False, True])
    @pytest.mark.parametrize(
        "econ", [EconParams(), EconParams(productivity_floor=1.0, mutation_sigma=1.0)],
        ids=["default", "binding_floor"],
    )
    def test_one_player_coasts_as_it_steps(self, window, equal_split, econ):
        params = RetentionParams(n0=1, alpha=2.0, window=window, equal_split=equal_split)
        assert run_coast_against_steps(params, econ, 5, 300) == 299

    def test_two_players_do_not_coast(self):
        # no cohort after the first, but two players: each row needs a step
        state = retention.new_state(RetentionParams(n0=2, alpha=4.0), EconParams())
        rng = derive_stream(0, 0)
        retention.step(state, rng)
        assert state.active_players == 2
        before = rng.bit_generator.state
        assert retention.coast(state, rng, np.empty((10, 8))) == 0
        assert state.iteration == 1 and rng.bit_generator.state == before

    @pytest.mark.parametrize("window, coasts", [(2**14, True), (2**20, False)])
    def test_coast_memory_stays_within_a_few_rings(self, window, coasts):
        params = RetentionParams(n0=1, alpha=2.0, window=window)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(3, 0)
        retention.step(state, rng)
        ring_bytes = state.buffer("window_matrix").nbytes
        rows = np.empty((39, len(RECORD_FIELDS) + len(retention.COUNTERS)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            filled = retention.coast(state, rng, rows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a window over 2**14 is left to the steps
        assert filled == (39 if coasts else 0)
        assert peak <= 5 * ring_bytes
        run_coast_against_steps(params, EconParams(), 3, 40)
