"""Rule-level tests for the retention economy's operations."""

import math

import pytest

from gamefi_sim.core import derive_stream
from gamefi_sim.harness import ExperimentSpec
from gamefi_sim.retention import RetentionParams
from reference import RetentionPlayer, payout, select_top, update_churn, window_totals


class TestWindowTotals:
    def test_full_window_sum(self):
        assert window_totals({0: [1, 2, 3, 4, 5]}, 5) == {0: 15.0}

    def test_partial_window(self):
        assert window_totals({0: [2, 3]}, 5) == {0: 5.0}

    def test_only_recent_entries_count(self):
        assert window_totals({0: [100, 1, 1, 1, 1, 1]}, 5) == {0: 5.0}

    def test_empty_ledger(self):
        assert window_totals({}, 5) == {}


class TestSelectTop:
    def test_count_rule(self):
        totals = {0: 10.0, 1: 5.0, 2: 1.0, 3: 1.0, 4: 1.0}
        assert select_top(totals, 0.2) == [0]

    def test_minimum_one_winner(self):
        totals = {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}
        assert select_top(totals, 0.2) == [0]

    def test_boundary_tie_breaks_to_lower_id(self):
        assert select_top({0: 5.0, 1: 5.0}, 0.2) == [0]

    def test_winners_are_highest_totals(self):
        totals = {0: 1.0, 1: 9.0, 2: 3.0, 3: 7.0, 4: 5.0, 5: 2.0, 6: 2.0, 7: 2.0, 8: 2.0, 9: 2.0}
        assert select_top(totals, 0.3) == [1, 3, 4]

    def test_empty_totals(self):
        assert select_top({}, 0.2) == []


class TestPayout:
    def test_proportional_split(self):
        totals = {0: 30.0, 1: 10.0, 2: 40.0, 3: 20.0}
        result = payout(totals, [0, 1], 0.8)
        assert result == {0: pytest.approx(60.0), 1: pytest.approx(20.0)}

    def test_single_winner_takes_pool(self):
        totals = {0: 20.0, 1: 30.0}
        assert payout(totals, [1], 0.8) == {1: pytest.approx(40.0)}

    def test_zero_share(self):
        totals = {0: 20.0, 1: 30.0}
        assert payout(totals, [0], 0.0) == {0: 0.0}

    def test_no_winners_means_no_distribution(self):
        assert payout({0: 5.0}, [], 0.8) == {}

    def test_pool_conserved(self):
        rng = derive_stream(20, 0)
        for _ in range(300):
            n = int(rng.random() * 20) + 1
            totals = {pid: 10.0 * rng.random() for pid in range(n)}
            winners = select_top(totals, 0.25)
            result = payout(totals, winners, 0.8)
            pool = 0.8 * math.fsum(totals.values())
            assert math.fsum(result.values()) == pytest.approx(pool, rel=1e-9)

    def test_equal_split_toggle(self):
        totals = {0: 30.0, 1: 10.0}
        result = payout(totals, [0, 1], 0.8, equal_split=True)
        assert result == {0: pytest.approx(16.0), 1: pytest.approx(16.0)}


class TestUpdateChurn:
    def _player(self, pid, tolerance, misses):
        return RetentionPlayer(pid, 1.0, tolerance, misses)

    def test_threshold_exceeded_departs(self):
        players = [self._player(0, 3, 3)]
        departed = update_churn(players, winners=[])
        assert [p.id for p in departed] == [0]
        assert players == []

    def test_winner_resets_and_stays(self):
        players = [self._player(0, 3, 3)]
        departed = update_churn(players, winners=[0])
        assert departed == []
        assert players[0].consecutive_misses == 0

    def test_new_player_survives_first_miss(self):
        players = [self._player(0, 1, 0)]
        departed = update_churn(players, winners=[])
        assert departed == []
        assert players[0].consecutive_misses == 1

    def test_miss_counter_tracks_iterations_since_last_win(self):
        player = self._player(0, 10, 0)
        players = [player]
        for expected in (1, 2, 3):
            update_churn(players, winners=[])
            assert player.consecutive_misses == expected
        update_churn(players, winners=[0])
        assert player.consecutive_misses == 0
        update_churn(players, winners=[])
        assert player.consecutive_misses == 1


class TestRetentionParamsValidation:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(top_fraction=0.0), "top_fraction"),
            (dict(top_fraction=1.5), "top_fraction"),
            (dict(pool_share=-0.1), "pool_share"),
            (dict(window=0), "window"),
            (dict(tolerance_min=0), "tolerance_min"),
            (dict(tolerance_min=5, tolerance_max=4), "tolerance_min must not exceed"),
            (dict(alpha=0.9), "alpha must exceed 1"),
            (dict(n0=-2), "n0 must be non-negative"),
            (dict(tolerance_max=2**53 + 1), "tolerance_max must be at most 2\\*\\*53"),
        ],
    )
    def test_rejects_out_of_range(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            RetentionParams(**kwargs).validate()

    def test_headline_constants_valid(self):
        RetentionParams(top_fraction=0.2, pool_share=0.8, window=5).validate()

    @pytest.mark.parametrize("model", ["serverfi", "retention"])
    def test_infinite_alpha_refused_by_its_path_active_or_not(self, model):
        # unchecked, the run budget's cohort bound ceil(inf / inf) would fail
        # with a ValueError that names no field
        with pytest.raises(ValueError, match=r"^retention\.alpha must be finite$"):
            ExperimentSpec(model=model, retention=RetentionParams(alpha=math.inf))
