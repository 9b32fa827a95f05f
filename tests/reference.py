"""Scalar test oracle: both economies' rules, one player at a time.

The package holds one implementation of each rule, the vectorised step.
This module holds the per-player forms the steps are checked against, and
the reference runs that re-simulate a repeat with them, consuming the
stream in the documented order. The steps must reproduce them bit-exactly
for the synthesis economy, and up to summation rounding for the retention
economy's window totals.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from gamefi_sim import retention, serverfi
from gamefi_sim.core import RECORD_FIELDS, EconParams, RepeatRecords, derive_stream
from gamefi_sim.serverfi import ServerFiParams, harmonic


def init_productivity(rng: np.random.Generator, params: EconParams) -> float:
    """Draw one entry productivity: log-normal with median ``init_mean``.

    Raises ValueError naming ``econ.productivity_init_sigma`` when
    ``exp(sigma * z)`` overflows a float.
    """
    z = rng.standard_normal()
    try:
        growth = math.exp(params.productivity_init_sigma * z)
    except OverflowError:
        raise ValueError(
            f"econ.productivity_init_sigma={params.productivity_init_sigma:g} is too large"
        ) from None
    value = params.productivity_init_mean * growth
    return max(value, params.productivity_floor)


def mutate_productivity(v: float, rng: np.random.Generator, params: EconParams) -> float:
    """Apply one multiplicative productivity shock.

    The relative shock is a zero-mean normal clamped to [-0.9, +0.9], so a
    single step can never wipe out (or multiply tenfold) an agent's output;
    the result is floored at ``productivity_floor``.
    """
    z = rng.standard_normal()
    eps = min(max(params.mutation_sigma * z, -0.9), 0.9)
    return max(v * (1.0 + eps), params.productivity_floor)


@dataclass
class ServerFiPlayer:
    """Scalar per-player view used by the rule-level operations."""

    id: int
    productivity: float
    draw_credit: float = 0.0
    counts: List[int] = field(default_factory=list)
    staked_nfts: int = 0


def draws_for_contribution(credit: float, value: float, lam: float) -> Tuple[int, float]:
    """Convert carried credit plus newly contributed value into whole draws.

    Returns ``(num_draws, new_credit)`` with the remainder carried forward,
    so low producers lose nothing to rounding; ``credit + value`` always
    equals ``num_draws * lam + new_credit``.
    """
    total = credit + value
    num_draws = int(math.floor(total / lam))
    new_credit = total - num_draws * lam
    # guard against division rounding across an exact multiple of lam
    if new_credit < 0.0:
        num_draws -= 1
        new_credit += lam
    elif new_credit >= lam:
        num_draws += 1
        new_credit -= lam
    return num_draws, new_credit


def synthesize(counts: Sequence[int]) -> Tuple[int, List[int]]:
    """Mint as many NFTs as the inventory allows (one of each type per mint).

    Returns ``(minted, remaining_counts)``; ``minted`` is the minimum count
    across types, i.e. synthesis repeats until some type runs out.
    """
    minted = min(counts)
    return minted, [c - minted for c in counts]


def expected_remaining_cost(missing: int, k: int, lam: float) -> float:
    """Expected further cost to obtain ``missing`` distinct types out of k."""
    if not 0 <= missing <= k:
        raise ValueError("missing must be between 0 and k")
    return lam * k * harmonic(missing)


def should_churn(
    player: ServerFiPlayer, last_per_nft_reward: float, params: ServerFiParams
) -> bool:
    """Rational exit rule for one player (True means the player leaves).

    NFT holders always stay; a non-holder leaves when the expected cost of
    finishing their fragment set exceeds the projected payoff of the NFT it
    would mint.
    """
    if player.staked_nfts >= 1:
        return False
    missing = sum(1 for c in player.counts if c == 0)
    cost = expected_remaining_cost(missing, params.k, params.lam)
    return cost > last_per_nft_reward * params.payoff_horizon


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


def step_records(model, rows):
    """The rows a model's step returned, viewed as the RepeatRecords run_once fills."""
    return RepeatRecords(np.array(rows, dtype=float), model.COUNTERS)


def step_record(model, row):
    """One row a model's step returned, viewed as an IterationRecord."""
    return step_records(model, [row])[0]


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
            n, player.draw_credit = draws_for_contribution(
                player.draw_credit, player.productivity, params.lam
            )
            for frag in serverfi.draw_fragments(rng, n, params.k):
                player.counts[int(frag)] += 1
            minted, player.counts = synthesize(player.counts)
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
                if should_churn(player, last_reward, params):
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
            totals = window_totals(ledger, params.window)
            winners = select_top(totals, params.top_fraction)
            paid = payout(totals, winners, params.pool_share, params.equal_split)
            departed = update_churn(players, winners)
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
    rows = []
    rewards = []
    for _ in range(iterations):
        rows.append(serverfi.step(state, rng))
        rewards.append(state.last_per_nft_reward)
    records = step_records(serverfi, rows)

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
    assert (state.by_type - state.staked).T.tolist() == [p.counts for p in ref_players]
    assert state.staked.tolist() == [p.staked_nfts for p in ref_players]
    return records, rewards


def retention_run(params, econ, seed, iterations, coast):
    """A retention run by its steps alone, or by steps and ``retention.coast``
    the way ``run_once`` takes them.

    Returns the table of rows, the final ids, productivity, tolerance,
    misses and ring (each as dtype, shape and bytes), the next stream value
    and how many rows the coast filled.
    """
    state = retention.new_state(params, econ)
    rng = derive_stream(seed, 0)
    table = np.empty((iterations, len(RECORD_FIELDS) + len(retention.COUNTERS)))
    coasted = t = 0
    with np.errstate(over="raise", invalid="raise"):
        while t < iterations:
            table[t] = retention.step(state, rng)
            t += 1
            if coast:
                filled = retention.coast(state, rng, table[t:])
                coasted += filled
                t += filled
    columns = (state.ids, state.productivity, state.tolerance, state.misses, state.window_matrix)
    final = [(column.dtype, column.shape, column.tobytes()) for column in columns]
    return table, final, rng.random(), coasted


def run_coast_against_steps(params, econ, seed, iterations):
    """Run a retention repeat with and without ``coast``; assert bit-equality.

    Checks every row, every final column and the next stream value. Returns
    how many rows the coast filled.
    """
    table, final, following, coasted = retention_run(params, econ, seed, iterations, True)
    ref_table, ref_final, ref_following, _ = retention_run(params, econ, seed, iterations, False)
    # bit for bit: compare the rows' float64 bit patterns
    np.testing.assert_array_equal(table.view(np.int64), ref_table.view(np.int64))
    assert final == ref_final
    assert following == ref_following
    return coasted
