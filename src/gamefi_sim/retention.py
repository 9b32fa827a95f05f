"""Top-contributor reward economy with tolerance-driven churn.

Each iteration the system ranks active players by their contributions over
a trailing window and pays the top fraction of them a fixed share of the
window's total earnings, split in proportion to their own window totals.
Players track how many consecutive iterations they went unrewarded; once
that streak exceeds their personal tolerance they quit for good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .core import (
    EconParams,
    Population,
    cohort_size,
    init_productivity_batch,
    mutate_productivity_batch,
    mutation_shocks,
)

# Tolerances are drawn through a float and stored as int64; up to 2**53 both
# hold every value exactly.
MAX_TOLERANCE = 2**53


@dataclass(frozen=True)
class RetentionParams:
    """Constants for the high-retention reward economy.

    The headline configuration rewards the top 20% of players with 80% of
    the total earnings from the trailing five iterations. Tolerances are
    drawn uniformly from [tolerance_min, tolerance_max] at join time.
    Arrivals reuse the same n0 / alpha^(i-1) law as the synthesis economy,
    ungated (this model defines no entry condition).
    """

    top_fraction: float = 0.2
    pool_share: float = 0.8
    window: int = 5
    tolerance_min: int = 3
    tolerance_max: int = 10
    n0: int = 200
    alpha: float = 1.02
    equal_split: bool = False

    def validate(self) -> None:
        if not 0 < self.top_fraction <= 1:
            raise ValueError("retention.top_fraction must be in (0, 1]")
        if not 0 <= self.pool_share <= 1:
            raise ValueError("retention.pool_share must be between 0 and 1")
        if self.window < 1:
            raise ValueError("retention.window must be at least 1")
        if self.tolerance_min < 1:
            raise ValueError("retention.tolerance_min must be at least 1")
        if self.tolerance_max < self.tolerance_min:
            raise ValueError(
                "retention.tolerance_min must not exceed retention.tolerance_max"
            )
        if self.tolerance_max > MAX_TOLERANCE:
            raise ValueError("retention.tolerance_max must be at most 2**53")
        if self.n0 < 0:
            raise ValueError("retention.n0 must be non-negative")
        if not self.alpha > 1:
            raise ValueError("retention.alpha must exceed 1")


def _ring_totals(ring: np.ndarray) -> np.ndarray:
    """Column sums of ``ring``, equal to ``np.ascontiguousarray(ring.T).sum(axis=1)``.

    Below 8 rows numpy's pairwise summation adds a contiguous row in order,
    as the axis-0 reduce adds the rows into the first one, so that reduce
    is bit-identical and needs no transposed copy.
    """
    if len(ring) < 8:
        return np.add.reduce(ring, axis=0)
    return np.ascontiguousarray(ring.T).sum(axis=1)


def _top_winners(totals: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mask of the ``count`` highest totals (ties to the lower index), and their values best first.

    With ``ref = np.lexsort((np.arange(len(totals)), -totals))[:count]``
    the mask marks the indices in ``ref``. One sort of the negated totals
    gives the values; on positive totals they equal ``totals[ref]`` bit for
    bit, since equal non-zero floats have equal bits, so the order within a
    tie does not show. The ``count``-th sorted value is the threshold: the
    winners are the totals above it plus the lowest-index totals tied at it.
    """
    ranked = -totals
    ranked.sort()
    threshold = ranked[count - 1]
    winners = totals >= -threshold
    if count < len(totals) and ranked[count] == threshold:
        # the cut splits a tie: only its first count - above members win
        above = int(np.searchsorted(ranked, threshold))
        winners[np.flatnonzero(totals == -threshold)[count - above:]] = False
    return winners, -ranked[:count]


# The counters a step's row holds after core.RECORD_FIELDS: this iteration's
# payout, winners and window total (the total the reward pool is a share of).
COUNTERS = ("payout_total", "winner_count", "window_total_sum")


@dataclass
class RetentionState(Population):
    """World state of one repeat: a population with tolerance, miss streak
    and contribution window per player.

    ``window_matrix`` is a ring buffer of the last ``window`` contributions
    with shape ``(window, n)``: row ``(i - 1) % window`` holds every
    player's iteration-``i`` contribution, so recording an iteration writes
    one contiguous row, and a player's trailing-window total is their
    column sum. It is a view of a ``(window, capacity)`` buffer, so only
    its rows are contiguous (see :class:`~gamefi_sim.core.Population`);
    below 8 rows the column sums go row by row, and at 8 or more they sum
    a transposed copy. Columns are zero-filled at join, and departed
    players take their columns (and thus their ledger history) with them.
    """

    COLUMNS = ("tolerance", "misses", "window_matrix")

    tolerance: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    misses: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    window_matrix: np.ndarray = field(default_factory=lambda: np.zeros((1, 0)))


def new_state(params: RetentionParams, econ: EconParams) -> RetentionState:
    return RetentionState(params, econ, window_matrix=np.zeros((params.window, 0)))


def state_columns(params: RetentionParams) -> int:
    """8-byte state entries per player: ids, productivity, tolerance, misses, the window."""
    return params.window + 4


def step(state: RetentionState, rng: np.random.Generator) -> Tuple[RetentionState, Tuple]:
    """Advance the world by one iteration, mutating ``state`` in place.

    Phase order: (1) ungated arrivals, (2) contributions recorded into the
    trailing window, (3) ranking, winner selection and payout, (4) miss
    bookkeeping and churn, (5) mutation of survivor productivity. Stream
    consumption per iteration: one normal per joiner, then one uniform per
    joiner (tolerance), then one normal per survivor. Returns the state and
    the iteration's row: the ``core.RECORD_FIELDS``, then the :data:`COUNTERS`.

    Ranking orders by window total, highest first, with ties to the lower
    id. One sort of the negated totals gives the winning threshold and the
    winners' totals in rank order, which the payout sums run over; the
    winners are the players above the threshold plus the lowest-index
    players tied at it. Index order is id order because ``state.ids`` is
    strictly increasing (see :class:`~gamefi_sim.core.Population`).
    """
    p = state.params
    econ = state.econ
    i = state.iteration + 1

    # (1) arrivals: same decaying cohort law as the synthesis economy, no gate
    joins = cohort_size(i, p.n0, p.alpha)
    if joins:
        fresh = init_productivity_batch(rng, joins, econ)
        span = p.tolerance_max - p.tolerance_min + 1
        tol = p.tolerance_min + (rng.random(joins) * span).astype(np.int64)
        state.join(fresh, tolerance=tol)

    n = state.active_players

    # (2) contributions land in the ring buffer
    total_value = float(state.productivity.sum())
    winner_count = 0
    payout_total = 0.0
    window_total_sum = 0.0
    departures = 0
    if n:
        state.window_matrix[(i - 1) % p.window] = state.productivity

        # (3) rank by trailing-window totals, pay the top fraction
        totals = _ring_totals(state.window_matrix)
        window_total_sum = float(totals.sum())
        winner_count = max(1, int(math.floor(p.top_fraction * n)))
        winners, winner_totals = _top_winners(totals, winner_count)
        pool = p.pool_share * window_total_sum
        if p.equal_split:
            amounts = np.full(winner_count, pool / winner_count)
        else:
            # no zero-sum case: each player's current entry is >= productivity_floor > 0
            amounts = pool * winner_totals / float(winner_totals.sum())
        payout_total = float(amounts.sum())

        # (4) misses and churn
        state.misses += 1
        state.misses[winners] = 0
        stay = state.misses <= state.tolerance
        departures = n - int(np.count_nonzero(stay))
        if departures:
            state.keep(stay)

    # (5) mutation of survivors
    if state.active_players:
        state.productivity[...] = mutate_productivity_batch(state.productivity, rng, econ)

    state.iteration = i
    return state, (
        i, total_value, n, joins, departures, payout_total, winner_count, window_total_sum
    )


# Entries of ring history a coast builds at once (512 KiB): it works through
# its rows in blocks of _COAST_BLOCK // window iterations, however many rows
# it fills. Below 4 rows a block (a window over 2**14), copying the ring into
# each row costs more than the step it replaces, so such a window is stepped.
_COAST_BLOCK = 2**16


def coast(state: RetentionState, rng: np.random.Generator, rows: np.ndarray) -> int:
    """Fill the leading rows of ``rows`` as the next steps would; return how many.

    Once at most one player is left and no cohort will arrive (cohorts
    never grow again, so ``cohort_size(state.iteration + 1) == 0`` means
    none ever will), the rest of the repeat is fixed. With no player, each
    row is zeros after its iteration number, and nothing is drawn. One
    player is the one winner each iteration (``winner_count`` is
    ``max(1, floor(top_fraction))`` = 1), so their misses stay 0 and they
    never leave; each iteration then draws exactly one normal, for their
    mutation. So the rows follow from one block of normals: the
    productivity is the recursion ``p = max(p * shock, floor)``, and each
    window total is a column of ``_ring_totals`` over the ring's history,
    summed as the step sums it. The coast leaves the state (productivity,
    ring, misses, iteration) and the stream where the steps would.

    A coast never raises a float error. Where a step would overflow it
    stops before that iteration, so the step raises the usual error there;
    filling none instead would make a late overflow retry the whole tail
    after every step. Otherwise it fills every row. With more players, a cohort still to
    come, or a lone player's window over 2**14 (see ``_COAST_BLOCK``), it
    fills none.
    """
    p = state.params
    if state.active_players > 1 or cohort_size(state.iteration + 1, p.n0, p.alpha):
        return 0
    if not state.active_players:
        rows[...] = 0.0
        rows[:, 0] = np.arange(state.iteration + 1, state.iteration + 1 + len(rows))
        state.iteration += len(rows)
        return len(rows)
    block = _COAST_BLOCK // p.window
    if block < 4:
        return 0
    for start in range(0, len(rows), block):
        part = rows[start : start + block]
        filled = _coast_one_player(state, rng, part)
        if filled < len(part):
            return start + filled
    return len(rows)


def _coast_one_player(state: RetentionState, rng: np.random.Generator, rows: np.ndarray) -> int:
    """Fill ``rows`` for a lone player with no arrivals to come, as :func:`coast` describes.

    It fills every row, or, when the step of some row would overflow, the
    rows before it, with the stream restored and drawn again for them.
    """
    p, econ = state.params, state.econ
    count = len(rows)
    first = state.iteration + 1
    ring = state.window_matrix[:, 0]
    saved = rng.bit_generator.state
    with np.errstate(over="ignore", invalid="ignore"):
        draws = rng.standard_normal(count)
        finite = np.isfinite(draws * econ.mutation_sigma)
        values = [float(state.productivity[0])]
        for shock in mutation_shocks(draws, econ.mutation_sigma).tolist():
            values.append(max(values[-1] * shock, econ.productivity_floor))
        values = np.array(values)
        finite &= np.isfinite(values[1:])
        # history[j] is the ring after iteration first + j: the ring before
        # the block, then for each iteration's slot, its contribution in the
        # rows up to the slot's next write, which comes window rows later
        offsets = np.arange(count)
        slots = (first - 1 + offsets) % p.window
        history = np.empty((count, p.window))
        history[...] = ring
        for lag in range(min(p.window, count)):
            history[offsets[lag:], slots[: count - lag]] = values[: count - lag]
        # column by column, each total summed as the step sums its one column
        totals = _ring_totals(history.T)
        # as the step pays its one winner; a non-finite total makes it non-finite too
        pool = p.pool_share * totals
        payout = pool / 1 if p.equal_split else pool * totals / totals
        finite &= np.isfinite(payout)
    if not finite.all():
        rng.bit_generator.state = saved
        filled = int(finite.argmin())
        return _coast_one_player(state, rng, rows[:filled]) if filled else 0
    row = (first + offsets, values[:-1], 1, 0, 0, payout, 1, totals)
    for column, value in enumerate(row):
        rows[:, column] = value
    state.productivity[0] = values[-1]
    state.misses[0] = 0
    ring[...] = history[-1]
    state.iteration += count
    return count
