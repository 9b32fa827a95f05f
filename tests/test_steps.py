"""World-step tests for both economies.

The reference runners below re-simulate a repeat player by player using
only the public rule-level operations, consuming the stream in the
documented order. The vectorized steps must reproduce them: bit-exactly
for the synthesis economy, and up to summation rounding for the retention
economy's window totals.
"""

import math

import numpy as np
import pytest

from gamefi_sim import retention, serverfi
from gamefi_sim.core import (
    EconParams,
    derive_stream,
    init_productivity,
    mutate_productivity,
)
from gamefi_sim.retention import RetentionParams, RetentionPlayer
from gamefi_sim.serverfi import ServerFiParams, ServerFiPlayer


def reference_serverfi_run(params, econ, seed, iterations):
    """Per-player re-simulation of the synthesis economy."""
    rng = derive_stream(seed, 0)
    players = []
    next_id = 0
    last_reward = None
    cost = serverfi.expected_collection_cost(params.k, params.lam)
    records = []
    for i in range(1, iterations + 1):
        gate = True if last_reward is None else serverfi.entry_gate(
            cost, last_reward, params.payoff_horizon
        )
        joins = serverfi.arrivals(i, params.n0, params.alpha, gate)
        for _ in range(joins):
            players.append(
                ServerFiPlayer(
                    id=next_id,
                    productivity=init_productivity(rng, econ),
                    counts=[0] * params.k,
                )
            )
            next_id += 1
        total_value = float(np.sum(np.array([p.productivity for p in players])))
        minted_total = 0
        for player in players:
            n, player.draw_credit = serverfi.draws_for_contribution(
                player.draw_credit, player.productivity, params.lam
            )
            for frag in serverfi.draw_fragments(rng, n, params.k):
                player.counts[int(frag)] += 1
            minted, player.counts = serverfi.synthesize(player.counts)
            player.staked_nfts += minted
            minted_total += minted
        if minted_total > 0:
            last_reward = serverfi.per_nft_reward(
                total_value, params.staking_share, minted_total
            )
        departures = 0
        if last_reward is not None:
            stayers = []
            for player in players:
                if serverfi.should_churn(player, last_reward, params):
                    departures += 1
                else:
                    stayers.append(player)
            players = stayers
        for player in players:
            player.productivity = mutate_productivity(player.productivity, rng, econ)
        records.append((i, total_value, joins, departures, minted_total))
    return records, players


def reference_retention_run(params, econ, seed, iterations):
    """Per-player re-simulation of the retention economy."""
    rng = derive_stream(seed, 0)
    players = []
    ledger = {}
    next_id = 0
    span = params.tolerance_max - params.tolerance_min + 1
    records = []
    for i in range(1, iterations + 1):
        joins = int(math.floor(params.n0 / params.alpha ** (i - 1)))
        fresh = [init_productivity(rng, econ) for _ in range(joins)]
        tolerances = [params.tolerance_min + int(rng.random() * span) for _ in range(joins)]
        for value, tolerance in zip(fresh, tolerances):
            players.append(RetentionPlayer(next_id, value, tolerance))
            ledger[next_id] = []
            next_id += 1
        total_value = float(np.sum(np.array([p.productivity for p in players])))
        winners = []
        paid = {}
        departures = 0
        if players:
            for player in players:
                ledger[player.id].append(player.productivity)
            totals = retention.window_totals(ledger, params.window)
            winners = retention.select_top(totals, params.top_fraction)
            paid = retention.payout(totals, winners, params.pool_share, params.equal_split)
            departed = retention.update_churn(players, winners)
            departures = len(departed)
            for gone in departed:
                del ledger[gone.id]
        for player in players:
            player.productivity = mutate_productivity(player.productivity, rng, econ)
        records.append((i, total_value, joins, departures, len(winners), math.fsum(paid.values())))
    return records, players


def run_serverfi_against_reference(params, econ, seed, iterations):
    """Run the vectorized step and the scalar reference; assert bit-equality.

    Checks every record (including NFTs minted) and every final state column.
    Returns the vectorized records and, per iteration, the reward the churn
    phase projected from (None before the first payout).
    """
    state = serverfi.new_state(params, econ)
    rng = derive_stream(seed, 0)
    records = []
    rewards = []
    for _ in range(iterations):
        records.append(serverfi.step(state, rng)[1])
        rewards.append(state.last_per_nft_reward)

    ref_records, ref_players = reference_serverfi_run(params, econ, seed, iterations)
    assert len(records) == len(ref_records)
    for record, (i, total, joins, departures, minted) in zip(records, ref_records):
        assert (record.iteration, record.total_value, record.joins, record.departures) == (
            i,
            total,
            joins,
            departures,
        )
        assert record.extra["nfts_minted"] == minted
    assert state.ids.tolist() == [p.id for p in ref_players]
    assert state.productivity.tolist() == [p.productivity for p in ref_players]
    assert state.draw_credit.tolist() == [p.draw_credit for p in ref_players]
    assert state.counts.tolist() == [p.counts for p in ref_players]
    assert state.staked.tolist() == [p.staked_nfts for p in ref_players]
    return records, rewards


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
        _, record = serverfi.step(state, rng)
        assert int(state.staked.sum()) >= 1
        assert record.extra["nfts_minted"] >= 1

    def test_empty_world_yields_zero_records(self):
        params = ServerFiParams(n0=0)
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(1, 0)
        for i in range(1, 6):
            _, record = serverfi.step(state, rng)
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
            _, record = serverfi.step(state, rng)
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
        econ = EconParams()
        seed = 123

        state = serverfi.new_state(params, econ)
        rng = derive_stream(seed, 0)
        records = [serverfi.step(state, rng)[1] for _ in range(60)]

        ref_records, ref_players = reference_serverfi_run(params, econ, seed, 60)

        for record, (i, total, joins, departures, minted) in zip(records, ref_records):
            assert record.iteration == i
            assert record.total_value == total
            assert record.joins == joins
            assert record.departures == departures
            assert record.extra["nfts_minted"] == minted

        assert state.ids.tolist() == [p.id for p in ref_players]
        assert state.productivity.tolist() == [p.productivity for p in ref_players]
        assert state.draw_credit.tolist() == [p.draw_credit for p in ref_players]
        assert state.counts.tolist() == [p.counts for p in ref_players]
        assert state.staked.tolist() == [p.staked_nfts for p in ref_players]

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
        full_set = serverfi.expected_remaining_cost(params.k, params.k, params.lam)
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

    def test_overflowing_cohort_decay_joins_nobody(self):
        params = ServerFiParams(n0=30, alpha=1e300)
        state = serverfi.new_state(params, EconParams())
        rng = derive_stream(2, 0)
        joins = [serverfi.step(state, rng)[1].joins for _ in range(6)]
        assert joins == [30, 0, 0, 0, 0, 0]


class TestRetentionStep:
    def test_first_iteration_five_players(self):
        params = RetentionParams(n0=5, alpha=1.02)
        state = retention.new_state(params, EconParams())
        rng = derive_stream(6, 0)
        _, record = retention.step(state, rng)
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
            _, record = retention.step(state, rng)
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
        joins = [retention.step(state, rng)[1].joins for _ in range(6)]
        assert joins == [30, 0, 0, 0, 0, 0]

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
        records = [retention.step(state, rng)[1] for _ in range(50)]

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
