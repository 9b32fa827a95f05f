"""Stream determinism and productivity-dynamics tests."""

import math
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

from gamefi_sim.core import (
    EconParams,
    Population,
    cohort_size,
    derive_stream,
    init_productivity_batch,
    mutate_productivity_batch,
)
from reference import init_productivity, mutate_productivity

# First three uniforms of stream (seed=42, repeat=5), frozen to pin the
# generator's cross-platform/cross-version behavior. A failure here means
# the random substrate changed and every recorded result is suspect.
PINNED_DRAWS_42_5 = [0.17468642449495608, 0.9786105134051767, 0.05700415924816693]


class StubRng:
    """Duck-typed stream that returns a fixed normal draw."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, n=None):
        if n is None:
            return self.z
        return np.full(n, self.z)


class TestDeriveStream:
    def test_same_inputs_same_draws(self):
        a = derive_stream(42, 0).random(100)
        b = derive_stream(42, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_repeat_indices_differ(self):
        a = derive_stream(42, 0).random(100)
        b = derive_stream(42, 1).random(100)
        assert not np.array_equal(a, b)

    def test_pinned_values(self):
        draws = derive_stream(42, 5).random(3)
        assert draws.tolist() == PINNED_DRAWS_42_5

    def test_same_sequence_across_processes(self):
        code = (
            "from gamefi_sim.core import derive_stream;"
            "print(derive_stream(42, 5).random(5).tolist())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        local = derive_stream(42, 5).random(5).tolist()
        assert out.stdout.strip() == str(local)

    def test_replay_ten_thousand_draws(self):
        a = derive_stream(7, 3).random(10_000)
        b = derive_stream(7, 3).random(10_000)
        assert np.array_equal(a, b)

    def test_adjacent_streams_uncorrelated(self):
        a = derive_stream(42, 0).random(10_000)
        b = derive_stream(42, 1).random(10_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0)
        with pytest.raises(ValueError):
            derive_stream(2**64, 0)
        with pytest.raises(ValueError):
            derive_stream(0, -1)

    def test_full_64_bit_seed_accepted(self):
        derive_stream(2**64 - 1, 0).random(3)


@dataclass
class Store(Population):
    COLUMNS = ("score", "grid")

    score: np.ndarray = field(default_factory=lambda: np.zeros(0))
    grid: np.ndarray = field(default_factory=lambda: np.zeros((3, 0), dtype=np.int64))


class TestPopulation:
    def test_join_appends_fresh_ids_and_zero_fills(self):
        store = Store(None, EconParams())
        store.join(np.array([1.0, 2.0]))
        store.join(np.array([3.0, 4.0, 5.0]), score=np.array([7.0, 8.0, 9.0]))
        assert store.ids.tolist() == [0, 1, 2, 3, 4] and store.next_id == 5
        assert store.productivity.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert store.score.tolist() == [0.0, 0.0, 7.0, 8.0, 9.0]
        assert store.grid.shape == (3, 5) and store.grid.dtype == np.int64
        assert not store.grid.any()

    def test_join_within_capacity_reuses_the_buffer(self):
        store = Store(None, EconParams())
        store.join(np.array([1.0, 2.0]))
        store.join(np.array([3.0]), score=np.array([7.0]))
        assert store.capacity == 4
        grid, score = store.buffer("grid"), store.buffer("score")
        store.grid += 5
        store.join(np.array([4.0]), score=np.array([8.0]))
        assert store.capacity == 4
        assert np.shares_memory(store.grid, grid) and np.shares_memory(store.score, score)
        assert store.grid.tolist() == [[5, 5, 5, 0]] * 3
        assert store.score.tolist() == [0.0, 0.0, 7.0, 8.0]
        # a full buffer doubles and keeps what it held
        store.join(np.array([5.0]))
        assert store.capacity == 8 and not np.shares_memory(store.grid, grid)
        assert store.grid.tolist() == [[5, 5, 5, 0, 0]] * 3
        assert store.ids.tolist() == [0, 1, 2, 3, 4]
        assert store.productivity.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_keep_compacts_every_column_into_a_reused_spare_buffer(self):
        store = Store(None, EconParams())
        store.join(np.arange(6.0), score=np.arange(6.0) * 10)
        store.join(np.arange(6.0, 7.0))
        store.grid += np.arange(7)
        first = store.buffer("grid")
        store.keep(np.array([True, False, True, True, False, True, False]))
        assert store.active_players == 4 and store.next_id == 7 and store.capacity == 12
        assert store.ids.tolist() == [0, 2, 3, 5]
        assert store.productivity.tolist() == [0.0, 2.0, 3.0, 5.0]
        assert store.score.tolist() == [0.0, 20.0, 30.0, 50.0]
        assert store.grid.tolist() == [[0, 2, 3, 5]] * 3
        spare = store.buffer("grid")
        assert np.shares_memory(store.grid, spare) and not np.shares_memory(spare, first)
        # a second keep compacts back into the first buffer
        store.keep(np.array([False, True, True, True]))
        assert store.buffer("grid") is first and store.ids.tolist() == [2, 3, 5]
        assert store.grid.tolist() == [[2, 3, 5]] * 3
        # a strided 2-D column: entry (row, j) sits at row * capacity + j of
        # the buffer's flat view, and the column's own reshape(-1) is a copy
        assert not store.grid.flags.c_contiguous
        store.buffer("grid").reshape(-1)[1 * store.capacity + 2] = 9
        assert store.grid[1].tolist() == [2, 3, 9]
        store.grid.reshape(-1)[0] = -1
        assert store.grid[0, 0] == 2

    def test_tally_counts_every_hit_on_a_strided_column(self):
        store = Store(None, EconParams())
        store.join(np.arange(5.0))
        store.keep(np.array([True, True, False, True, False]))
        store.grid += np.arange(3)[:, None] * 10
        assert store.capacity == 5 and not store.grid.flags.c_contiguous
        store.buffer("grid")[:, 3:] = -7
        # row 2's player 0 is hit three times, and row 1 not at all
        rows = np.array([0, 2, 2, 2, 0, 2], dtype=np.int64)
        players = np.array([1, 0, 0, 0, 1, 2])
        expected = store.grid.copy()
        for row, player in zip(rows.tolist(), players.tolist()):
            expected[row, player] += 1
        store.tally("grid", rows, players)
        assert store.grid.tolist() == expected.tolist()
        assert expected.tolist() == [[0, 2, 0], [10, 10, 10], [23, 20, 21]]
        # the slack past n is untouched
        assert store.buffer("grid")[:, 3:].tolist() == [[-7, -7]] * 3

    def test_keep_then_a_growing_join_then_keep_uses_the_new_capacity(self):
        store = Store(None, EconParams())
        store.join(np.arange(4.0), score=np.arange(4.0) * 10)
        store.grid += np.arange(4)
        names = ("ids", "productivity", "score", "grid")
        old = [store.buffer(name) for name in names]
        store.keep(np.array([True, False, True, True]))
        old += [store.buffer(name) for name in names]
        store.join(np.arange(4.0, 7.0), score=np.array([40.0, 50.0, 60.0]))
        assert store.capacity == 8
        store.grid[:, 3:] = 9
        store.keep(np.array([False, True, True, False, True, True]))
        assert store.ids.tolist() == [2, 3, 5, 6]
        assert store.productivity.tolist() == [2.0, 3.0, 5.0, 6.0]
        assert store.score.tolist() == [20.0, 30.0, 50.0, 60.0]
        assert store.grid.tolist() == [[2, 3, 9, 9]] * 3
        for name in names:
            assert store.buffer(name).shape[-1] == 8
            assert getattr(store, name).base is store.buffer(name)
            assert not any(np.shares_memory(store.buffer(name), b) for b in old)
        # the spare bank the second keep allocated holds the new capacity too
        store.keep(np.ones(4, dtype=bool))
        assert store.buffer("grid").shape == (3, 8) and store.grid.tolist() == [[2, 3, 9, 9]] * 3


class TestCohortSize:
    def test_matches_closed_form_for_ordinary_values(self):
        for n0 in (0, 1, 7, 200, 5000):
            for alpha in (1.0001, 1.02, 1.1, 1.5, 3.0):
                for i in range(1, 600):
                    assert cohort_size(i, n0, alpha) == math.floor(n0 / alpha ** (i - 1))

    def test_overflowed_decay_is_an_empty_cohort(self):
        assert cohort_size(1, 200, 1e300) == 200
        assert cohort_size(2, 200, 1e300) == 0
        assert cohort_size(3, 200, 1e300) == 0
        assert cohort_size(10**6, 200, 1.5) == 0


class TestInitProductivity:
    def test_zero_sigma_degenerates_to_mean(self):
        params = EconParams(productivity_init_mean=1.0, productivity_init_sigma=0.0)
        rng = derive_stream(1, 0)
        assert init_productivity(rng, params) == 1.0

    def test_median_matches_init_mean(self):
        # log-normal median is exactly the configured mean parameter
        params = EconParams(productivity_init_mean=1.0, productivity_init_sigma=0.5)
        rng = derive_stream(11, 0)
        samples = init_productivity_batch(rng, 100_000, params)
        assert abs(np.median(samples) - 1.0) < 0.03

    def test_floor_clamps(self):
        params = EconParams(
            productivity_init_mean=0.001,
            productivity_init_sigma=0.5,
            productivity_floor=0.01,
        )
        rng = derive_stream(2, 0)
        samples = init_productivity_batch(rng, 1000, params)
        assert (samples >= params.productivity_floor).all()

    def test_batch_matches_scalar(self):
        params = EconParams()
        batch = init_productivity_batch(derive_stream(3, 0), 8, params)
        rng = derive_stream(3, 0)
        scalar = [init_productivity(rng, params) for _ in range(8)]
        assert batch.tolist() == scalar

    @pytest.mark.parametrize("n", [1, 10_000])
    @pytest.mark.parametrize(
        "mean, sigma",
        [(1.0, 0.5), (3.7, 0.5), (0.25, 0.0), (0.02, 3.0)],
        ids=["default", "mean_3.7", "sigma_0", "floor_binds"],
    )
    def test_batch_matches_scalar_bit_for_bit(self, mean, sigma, n):
        params = EconParams(productivity_init_mean=mean, productivity_init_sigma=sigma)
        batch = init_productivity_batch(derive_stream(13, 0), n, params)
        rng = derive_stream(13, 0)
        scalar = [init_productivity(rng, params) for _ in range(n)]
        assert batch.tolist() == scalar
        if mean == 0.02 and n > 1:
            assert (batch == params.productivity_floor).any()

    def test_overflowing_exponential_raises_value_error_in_both_forms(self):
        params = EconParams(productivity_init_sigma=1000.0)
        with pytest.raises(ValueError, match=r"econ\.productivity_init_sigma"):
            init_productivity_batch(derive_stream(4, 0), 50, params)
        rng = derive_stream(4, 0)
        with pytest.raises(ValueError, match=r"econ\.productivity_init_sigma"):
            for _ in range(50):
                init_productivity(rng, params)


class CraftedRng:
    """Duck-typed stream whose ``standard_normal(n)`` returns crafted values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def standard_normal(self, n):
        assert n == len(self.values)
        return self.values.copy()


class TestInitProductivityExpPaths:
    """The batch exponential equals ``math.exp`` on both sides of 708.

    A cohort whose largest ``sigma * z`` is at most 708 is exponentiated
    by numpy's complex exp, a cohort above 708 by ``math.exp`` per element.
    A failure on the first path on a new platform means that its libm
    ``cexp`` of a zero imaginary part does not reduce to ``exp``.
    """

    PARAMS = EconParams(
        productivity_init_mean=1.0, productivity_init_sigma=1.0, productivity_floor=5e-324
    )

    def batch(self, values):
        with np.errstate(over="raise", invalid="raise"):
            return init_productivity_batch(CraftedRng(values), len(values), self.PARAMS)

    def scalar_rule(self, values):
        p = self.PARAMS
        return [
            max(p.productivity_init_mean * math.exp(p.productivity_init_sigma * z),
                p.productivity_floor)
            for z in values
        ]

    def test_cohort_up_to_708_matches_the_scalar_rule(self):
        rng = np.random.default_rng(708)
        edges = [-746.0, -745.2, -745.13, -744.5, -740.0, -709.0, -708.4,
                 -0.0, 0.0, 1e-300, 707.99, 708.0]
        spread = np.linspace(-746.0, 708.0, 20_001)
        values = np.concatenate([edges, spread, rng.uniform(-746.0, 708.0, 20_000)])
        batch = self.batch(values)
        expected = self.scalar_rule(values)
        assert batch.tolist() == expected
        # the range reaches exponentials that underflow to a subnormal and to 0.0
        assert 0.0 < math.exp(-740.0) < sys.float_info.min
        assert math.exp(-746.0) == 0.0 and batch[0] == self.PARAMS.productivity_floor

    # glibc's cexp differs from exp on about 1 in 8 values in (709, 709.78]
    @pytest.mark.parametrize("top", [708.5, 709.05, 709.3, 709.7, 709.78])
    def test_cohort_above_708_matches_the_scalar_rule(self, top):
        rng = np.random.default_rng(709)
        values = np.concatenate([rng.uniform(708.0, top, 4_000), rng.uniform(-746.0, 708.0, 500)])
        values[-1] = top
        assert self.batch(values).tolist() == self.scalar_rule(values)

    def test_cohort_above_709_79_raises_the_sigma_error(self):
        values = np.array([0.0, -3.0, 709.79, 1.0])
        with pytest.raises(ValueError, match=r"econ\.productivity_init_sigma"):
            self.batch(values)


class TestMutateProductivity:
    def test_zero_sigma_is_identity(self):
        params = EconParams(mutation_sigma=0.0)
        rng = derive_stream(4, 0)
        assert mutate_productivity(1.37, rng, params) == 1.37

    def test_mean_preserving(self):
        # symmetric relative shock: E[v * (1 + eps)] = v
        params = EconParams(mutation_sigma=0.1)
        rng = derive_stream(5, 0)
        values = np.ones(100_000)
        mutated = mutate_productivity_batch(values, rng, params)
        assert abs(mutated.mean() - 1.0) < 0.01

    def test_floor_clamps_on_negative_shock(self):
        params = EconParams(mutation_sigma=0.5, productivity_floor=0.01)
        out = mutate_productivity(params.productivity_floor, StubRng(-5.0), params)
        assert out == params.productivity_floor

    def test_shock_clamped_to_plus_minus_ninety_percent(self):
        params = EconParams(mutation_sigma=10.0, productivity_floor=1e-9)
        rng = derive_stream(6, 0)
        values = np.full(10_000, 2.0)
        mutated = mutate_productivity_batch(values, rng, params)
        assert mutated.min() >= 2.0 * 0.1 - 1e-12
        assert mutated.max() <= 2.0 * 1.9 + 1e-12

    def test_positivity_after_many_mutations(self):
        params = EconParams(mutation_sigma=0.4)
        rng = derive_stream(7, 0)
        v = 1.0
        for _ in range(2000):
            v = mutate_productivity(v, rng, params)
            assert v >= params.productivity_floor

    def test_batch_matches_scalar(self):
        params = EconParams(mutation_sigma=0.2)
        values = np.array([0.5, 1.0, 2.0, 4.0])
        batch = mutate_productivity_batch(values, derive_stream(8, 0), params)
        rng = derive_stream(8, 0)
        scalar = [mutate_productivity(v, rng, params) for v in values]
        assert batch.tolist() == scalar

    @pytest.mark.parametrize("n", [1, 10_000])
    @pytest.mark.parametrize("sigma", [0.0, 0.2, 5.0], ids=["sigma_0", "sigma_0.2", "clip_binds"])
    def test_batch_matches_scalar_bit_for_bit(self, sigma, n):
        params = EconParams(mutation_sigma=sigma, productivity_floor=0.05)
        values = derive_stream(14, 1).lognormal(sigma=1.5, size=n)
        before = values.copy()
        batch = mutate_productivity_batch(values, derive_stream(14, 0), params)
        rng = derive_stream(14, 0)
        scalar = [mutate_productivity(v, rng, params) for v in values.tolist()]
        assert batch.tolist() == scalar
        assert values.tolist() == before.tolist()
        if sigma == 5.0 and n > 1:
            # both clip bounds and the floor are reached
            assert np.isclose(batch / values, 0.1).any()
            assert np.isclose(batch / values, 1.9).any()
            assert (batch == params.productivity_floor).any()


class TestEconParamsValidation:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(productivity_init_mean=0.0), "productivity_init_mean"),
            (dict(productivity_init_sigma=-0.1), "productivity_init_sigma"),
            (dict(mutation_sigma=-1.0), "mutation_sigma"),
            (dict(productivity_floor=0.0), "productivity_floor"),
        ],
    )
    def test_rejects_out_of_range(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            EconParams(**kwargs).validate()

    def test_defaults_valid(self):
        EconParams().validate()
