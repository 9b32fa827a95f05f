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
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .core import (
    EconParams,
    IterationRecord,
    Population,
    cohort_size,
    init_productivity_batch,
    mutate_productivity_batch,
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


@dataclass
class RetentionPlayer:
    """Scalar per-player view used by the rule-level operations."""

    id: int
    productivity: float
    tolerance: int
    consecutive_misses: int = 0


def window_totals(
    ledger: Mapping[int, Sequence[float]], window: int
) -> Dict[int, float]:
    """Sum each player's most recent contributions, up to ``window`` entries.

    Players present for fewer iterations than the window are summed over
    what they have; there is no zero-padding penalty for newcomers.
    """
    return {pid: math.fsum(entries[-window:]) for pid, entries in ledger.items()}


def select_top(totals: Mapping[int, float], top_fraction: float) -> List[int]:
    """Pick the winner set: the max(1, floor(top_fraction * N)) highest totals.

    Boundary ties break toward the lower player id, so selection is fully
    deterministic. Returns winners in rank order; empty input yields an
    empty list.
    """
    if not totals:
        return []
    count = max(1, int(math.floor(top_fraction * len(totals))))
    ranked = sorted(totals, key=lambda pid: (-totals[pid], pid))
    return ranked[:count]


def payout(
    totals: Mapping[int, float],
    winners: Iterable[int],
    pool_share: float,
    equal_split: bool = False,
) -> Dict[int, float]:
    """Distribute pool_share of the all-player window total among winners.

    The split is proportional to each winner's own window total (or equal
    when ``equal_split`` is set). With no winners the pool goes undistributed.
    """
    winners = list(winners)
    if not winners:
        return {}
    pool = pool_share * math.fsum(totals.values())
    if equal_split:
        return {pid: pool / len(winners) for pid in winners}
    winner_sum = math.fsum(totals[pid] for pid in winners)
    if winner_sum <= 0.0:
        return {pid: pool / len(winners) for pid in winners}
    return {pid: pool * totals[pid] / winner_sum for pid in winners}


def update_churn(
    players: List[RetentionPlayer], winners: Iterable[int]
) -> List[RetentionPlayer]:
    """Advance miss counters and pull out the players who give up.

    Winners reset to zero misses; everyone else gains one. Players whose
    streak exceeds their tolerance are removed from ``players`` (in place)
    and returned as the departure list.
    """
    winner_set = set(winners)
    departed: List[RetentionPlayer] = []
    remaining: List[RetentionPlayer] = []
    for player in players:
        if player.id in winner_set:
            player.consecutive_misses = 0
        else:
            player.consecutive_misses += 1
        if player.consecutive_misses > player.tolerance:
            departed.append(player)
        else:
            remaining.append(player)
    players[:] = remaining
    return departed


def _ring_totals(ring: np.ndarray) -> np.ndarray:
    """Column sums of ``ring``, added in numpy's row-sum order.

    Bit-identical to ``np.ascontiguousarray(ring.T).sum(axis=1)``, the
    row sums of the same matrix stored row-major: numpy's pairwise
    summation adds a contiguous row sequentially below 8 entries, with 8
    interleaved accumulators up to 128, and splits longer rows in two
    (at a multiple of 8). The same adds are made here on whole rows.
    """
    count = len(ring)
    if count > 128:
        half = count // 2 - (count // 2) % 8
        return _ring_totals(ring[:half]) + _ring_totals(ring[half:])
    if count < 8:
        out = ring[0].copy()
        rest = ring[1:]
    else:
        top = count - count % 8
        acc = ring[:8].copy()
        for row in range(8, top, 8):
            acc += ring[row:row + 8]
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        rest = ring[top:]
    for row in rest:
        out += row
    return out


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


@dataclass
class RetentionState(Population):
    """World state of one repeat: a population with tolerance, miss streak
    and contribution window per player.

    ``window_matrix`` is a ring buffer of the last ``window`` contributions
    with shape ``(window, n)``: row ``(i - 1) % window`` holds every
    player's iteration-``i`` contribution, so recording an iteration writes
    one contiguous row, and a player's trailing-window total is their
    column sum. It is a view of a ``(window, capacity)`` buffer, so only
    its rows are contiguous; every pass over it goes row by row (see
    :class:`~gamefi_sim.core.Population`). Columns are zero-filled at join,
    and departed players take their columns (and thus their ledger
    history) with them.
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


def step(
    state: RetentionState, rng: np.random.Generator
) -> Tuple[RetentionState, IterationRecord]:
    """Advance the world by one iteration, mutating ``state`` in place.

    Phase order: (1) ungated arrivals, (2) contributions recorded into the
    trailing window, (3) ranking, winner selection and payout, (4) miss
    bookkeeping and churn, (5) mutation of survivor productivity. Stream
    consumption per iteration: one normal per joiner, then one uniform per
    joiner (tolerance), then one normal per survivor.

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
        leave = state.misses > state.tolerance
        departures = int(np.count_nonzero(leave))
        if departures:
            state.keep(~leave)

    # (5) mutation of survivors
    if state.active_players:
        state.productivity[...] = mutate_productivity_batch(state.productivity, rng, econ)

    state.iteration = i
    record = IterationRecord(
        iteration=i,
        total_value=total_value,
        active_players=n,
        joins=joins,
        departures=departures,
        extra={
            "payout_total": payout_total,
            "winner_count": float(winner_count),
            "window_total_sum": window_total_sum,
        },
    )
    return state, record
