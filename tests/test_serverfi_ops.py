"""Rule-level tests for the synthesis economy's operations."""

import math

import numpy as np
import pytest

from gamefi_sim.core import derive_stream
from gamefi_sim.serverfi import (
    ServerFiParams,
    arrivals,
    draw_fragments,
    entry_gate,
    expected_collection_cost,
    harmonic,
    per_nft_reward,
)
from reference import ServerFiPlayer, draws_for_contribution, expected_remaining_cost
from reference import should_churn, synthesize


class TestDrawsForContribution:
    def test_floor_and_remainder(self):
        assert draws_for_contribution(0.0, 3.5, 1.0) == (3, 0.5)

    def test_carry_over(self):
        n, credit = draws_for_contribution(0.7, 0.5, 1.0)
        assert n == 1
        assert credit == pytest.approx(0.2)

    def test_zero_contribution(self):
        assert draws_for_contribution(0.0, 0.0, 2.0) == (0, 0.0)

    def test_value_conserved_and_credit_bounded(self):
        rng = derive_stream(9, 0)
        for _ in range(2000):
            lam = 1.0 + 3.0 * rng.random()
            credit = lam * rng.random()
            value = 10.0 * rng.random()
            n, new_credit = draws_for_contribution(credit, value, lam)
            assert n >= 0
            assert 0.0 <= new_credit < lam
            assert n * lam + new_credit == pytest.approx(credit + value, abs=1e-9)


class TestDrawFragments:
    def test_single_type_always_zero(self):
        frags = draw_fragments(derive_stream(10, 0), 50, 1)
        assert (frags == 0).all()

    def test_zero_draws_consumes_nothing(self):
        a = derive_stream(11, 0)
        b = derive_stream(11, 0)
        assert len(draw_fragments(a, 0, 4)) == 0
        assert a.random() == b.random()

    def test_consumes_exactly_num_draws_uniforms(self):
        a = derive_stream(12, 0)
        b = derive_stream(12, 0)
        frags = draw_fragments(a, 5, 4)
        u = b.random(5)
        assert np.array_equal(frags, np.floor(u * 4).astype(np.int64))
        assert a.random() == b.random()

    def test_uniform_frequencies(self):
        frags = draw_fragments(derive_stream(13, 0), 100_000, 4)
        for j in range(4):
            freq = float((frags == j).mean())
            assert abs(freq - 0.25) < 0.02

    def test_indices_in_range(self):
        frags = draw_fragments(derive_stream(14, 0), 10_000, 7)
        assert frags.min() >= 0
        assert frags.max() <= 6


class TestSynthesize:
    def test_exact_set(self):
        assert synthesize([1, 1, 1]) == (1, [0, 0, 0])

    def test_missing_type_blocks(self):
        assert synthesize([2, 0, 1]) == (0, [2, 0, 1])

    def test_min_rule(self):
        assert synthesize([3, 2, 2]) == (2, [1, 0, 0])

    def test_fragment_conservation(self):
        rng = derive_stream(15, 0)
        for _ in range(500):
            k = int(rng.random() * 8) + 1
            counts = [int(rng.random() * 5) for _ in range(k)]
            minted, remaining = synthesize(counts)
            assert minted == min(counts)
            assert sum(counts) - k * minted == sum(remaining)
            assert min(remaining) == 0


class TestExpectedCosts:
    def test_single_type(self):
        assert expected_collection_cost(1, 2.0) == 2.0

    def test_four_types(self):
        assert expected_collection_cost(4, 1.0) == pytest.approx(25.0 / 3.0)

    def test_eight_types(self):
        assert expected_collection_cost(8, 1.0) == pytest.approx(21.742857142857144)

    def test_remaining_complete_set(self):
        assert expected_remaining_cost(0, 5, 1.0) == 0.0

    def test_remaining_one_of_five(self):
        # geometric wait with success probability 1/5
        assert expected_remaining_cost(1, 5, 1.0) == 5.0

    def test_remaining_all_equals_full_collection(self):
        assert expected_remaining_cost(2, 2, 1.0) == expected_collection_cost(2, 1.0) == 3.0

    def test_remaining_bounds(self):
        with pytest.raises(ValueError):
            expected_remaining_cost(3, 2, 1.0)
        with pytest.raises(ValueError):
            expected_remaining_cost(-1, 2, 1.0)

    def test_harmonic(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0)

    def test_monte_carlo_agreement_small_k(self):
        # brute-force the expected draw count for k=3 and compare to 3*H_3
        rng = derive_stream(16, 0)
        trials = 20_000
        total = 0
        for _ in range(trials):
            seen = 0
            draws = 0
            while seen != 0b111:
                seen |= 1 << int(rng.random() * 3)
                draws += 1
            total += draws
        analytic = 3 * harmonic(3)
        assert abs(total / trials - analytic) / analytic < 0.02


class TestPerNftReward:
    def test_arithmetic(self):
        assert per_nft_reward(200.0, 0.1, 4) == 5.0

    def test_empty_pool(self):
        assert per_nft_reward(200.0, 0.1, 0) == 0.0

    def test_zero_value(self):
        assert per_nft_reward(0.0, 0.1, 3) == 0.0


class TestEntryGate:
    def test_open_when_reward_covers_cost(self):
        assert entry_gate(25.0 / 3.0, 0.2, 50) is True

    def test_closed_when_reward_falls_short(self):
        assert entry_gate(25.0 / 3.0, 0.1, 50) is False

    def test_zero_reward_closed(self):
        assert entry_gate(5.0, 0.0, 50) is False

    def test_monotone_in_reward(self):
        # once closed at reward r, closed at every smaller reward
        cost = expected_collection_cost(8, 2.0)
        rewards = [0.01 * j for j in range(200)]
        states = [entry_gate(cost, r, 50) for r in rewards]
        first_open = states.index(True)
        assert all(not s for s in states[:first_open])
        assert all(states[first_open:])


class TestArrivals:
    def test_first_iteration_full_cohort(self):
        assert arrivals(1, 100, 1.1, True) == 100

    def test_decay(self):
        assert arrivals(2, 100, 1.1, True) == 90

    def test_gate_closed(self):
        assert arrivals(2, 100, 1.1, False) == 0

    def test_non_increasing(self):
        sizes = [arrivals(i, 200, 1.02, True) for i in range(1, 400)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 0


class TestShouldChurn:
    # params built directly (validation not invoked) so the unit-lam
    # arithmetic of the rule examples stays exact
    PARAMS = ServerFiParams(lam=1.0, k=4, payoff_horizon=50)

    def _player(self, counts, staked):
        return ServerFiPlayer(id=0, productivity=1.0, counts=counts, staked_nfts=staked)

    def test_holder_never_leaves(self):
        player = self._player([0, 0, 0, 0], staked=1)
        assert should_churn(player, 0.0, self.PARAMS) is False

    def test_non_holder_missing_all_leaves(self):
        # remaining cost ~ 4*H_4 = 8.33 exceeds projected reward 0.1*50 = 5
        player = self._player([0, 0, 0, 0], staked=0)
        assert should_churn(player, 0.1, self.PARAMS) is True

    def test_non_holder_missing_one_stays(self):
        # remaining cost ~ 4*H_1 = 4 is within projected reward 5
        player = self._player([2, 1, 3, 0], staked=0)
        assert should_churn(player, 0.1, self.PARAMS) is False


class TestServerFiParamsValidation:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(lam=0.5), r"serverfi\.lambda must exceed 1"),
            (dict(lam=1.0), r"serverfi\.lambda must exceed 1"),
            (dict(k=0), "k must be between 1 and 64"),
            (dict(k=65), "k must be between 1 and 64"),
            (dict(alpha=1.0), "alpha must exceed 1"),
            (dict(n0=-1), "n0 must be non-negative"),
            (dict(staking_share=1.5), "staking_share"),
            (dict(payoff_horizon=0), "payoff_horizon"),
            (dict(payoff_horizon=10**400), r"serverfi\.payoff_horizon must be at most 2\*\*53"),
        ],
    )
    def test_rejects_out_of_range(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ServerFiParams(**kwargs).validate()

    def test_defaults_valid(self):
        ServerFiParams().validate()
