"""Fragment-lottery economy with NFT synthesis and staking payouts.

Players convert contributed value into lottery draws at a fixed exchange
rate, collect one fragment per draw (uniform over ``k`` types), and mint an
NFT whenever they hold a full set. Minted NFTs are staked immediately and
the staking pool pays out a share of each iteration's total contributed
value. Agents are rational: prospective joiners compare the expected cost
of completing a fragment set against the projected reward of one staked
NFT, and incumbents without an NFT leave once finishing their set stops
being worth it.

The per-iteration reward pool is shared by the NFTs staked during that
iteration, so heavy minting dilutes what each new NFT earns. In steady
state the marginal NFT earns about ``staking_share * k * lam`` per
iteration, which makes the join/stay economics parameter-driven rather
than a foregone conclusion (see ``step``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    EconParams,
    IterationRecord,
    Population,
    cohort_size,
    init_productivity_batch,
    mutate_productivity_batch,
)

# Most lottery draws one iteration may take (about 0.5 GiB of draw arrays).
# A larger draw count means a productivity far beyond any meaningful run; the
# step refuses it with a ValueError instead of exhausting memory or wrapping
# the int64 draw count.
MAX_DRAWS_PER_ITERATION = 2**24


@dataclass(frozen=True)
class ServerFiParams:
    """Economy constants for the synthesis model.

    ``lam`` is the contributed value consumed per lottery draw, ``k`` the
    number of fragment types, ``n0``/``alpha`` the day-one cohort size and
    the geometric decay of later cohorts, ``staking_share`` the fraction of
    each iteration's total value paid into the staking pool, and
    ``payoff_horizon`` the number of iterations of per-NFT reward a
    rational agent projects when deciding to join or leave.
    """

    lam: float = 2.0
    k: int = 8
    n0: int = 200
    alpha: float = 1.02
    staking_share: float = 0.1
    payoff_horizon: int = 50

    def validate(self) -> None:
        if not self.lam > 1:
            raise ValueError("serverfi.lambda must exceed 1")
        if not 1 <= self.k <= 64:
            raise ValueError("serverfi.k must be between 1 and 64")
        if self.n0 < 0:
            raise ValueError("serverfi.n0 must be non-negative")
        if not self.alpha > 1:
            raise ValueError("serverfi.alpha must exceed 1")
        if not 0 <= self.staking_share <= 1:
            raise ValueError("serverfi.staking_share must be between 0 and 1")
        if self.payoff_horizon < 1:
            raise ValueError("serverfi.payoff_horizon must be at least 1")
        # gate and churn multiply a float by it: exact to 2**53, OverflowError past 1e308
        if self.payoff_horizon > 2**53:
            raise ValueError("serverfi.payoff_horizon must be at most 2**53")


@dataclass
class ServerFiPlayer:
    """Scalar per-player view used by the rule-level operations."""

    id: int
    productivity: float
    draw_credit: float = 0.0
    counts: List[int] = field(default_factory=list)
    staked_nfts: int = 0


def harmonic(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i, with H_0 = 0."""
    return sum(1.0 / i for i in range(1, n + 1))


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


def draw_fragments(rng: np.random.Generator, num_draws: int, k: int) -> np.ndarray:
    """Draw ``num_draws`` fragment indices, each uniform on {0..k-1}.

    Consumes exactly ``num_draws`` uniforms from ``rng``.
    """
    u = rng.random(num_draws)
    return (u * k).astype(np.int64)


def synthesize(counts: Sequence[int]) -> Tuple[int, List[int]]:
    """Mint as many NFTs as the inventory allows (one of each type per mint).

    Returns ``(minted, remaining_counts)``; ``minted`` is the minimum count
    across types, i.e. synthesis repeats until some type runs out.
    """
    minted = min(counts)
    return minted, [c - minted for c in counts]


def expected_collection_cost(k: int, lam: float) -> float:
    """Expected value a newcomer must contribute to complete a full set.

    Classic coupon-collector result: k * H_k draws on average, each draw
    costing ``lam`` of contributed value.
    """
    return lam * k * harmonic(k)


def expected_remaining_cost(missing: int, k: int, lam: float) -> float:
    """Expected further cost to obtain ``missing`` distinct types out of k."""
    if not 0 <= missing <= k:
        raise ValueError("missing must be between 0 and k")
    return lam * k * harmonic(missing)


def per_nft_reward(total_value: float, staking_share: float, staked_count: int) -> float:
    """Per-NFT payout when ``staked_count`` NFTs share the iteration pool."""
    if staked_count <= 0:
        return 0.0
    return staking_share * total_value / staked_count


def entry_gate(expected_cost: float, last_per_nft_reward: float, payoff_horizon: int) -> bool:
    """True (open) when the projected reward of one NFT covers the set cost."""
    return last_per_nft_reward * payoff_horizon >= expected_cost


def arrivals(iteration: int, n0: int, alpha: float, gate_open: bool) -> int:
    """Size of the joining cohort: floor(n0 / alpha^(i-1)), zero when gated."""
    if not gate_open:
        return 0
    return cohort_size(iteration, n0, alpha)


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
class ServerFiState(Population):
    """World state of one repeat: a population with draw credit, fragment
    counts and staked NFTs per player.

    ``last_per_nft_reward`` is None until the first payout event: with no
    observed reward to project from, rational agents have no basis to stay
    out (the gate is open) or to quit (churn is inactive).

    ``by_type`` holds the counts column-major, ``(k, n)``, and ``counts``
    is its ``(n, k)`` transposed view. Each per-type pass of the step (the
    mint minimum, the missing-type scan) reads one contiguous row. The
    lottery scatter-adds into the flat view of the ``(k, capacity)``
    backing buffer at ``type * capacity + player``: ``by_type`` itself is
    not C-contiguous while ``capacity > n``, so its ``reshape(-1)`` would
    be a copy (see :class:`~gamefi_sim.core.Population`).
    """

    COLUMNS = ("draw_credit", "by_type", "staked")

    last_per_nft_reward: Optional[float] = None
    draw_credit: np.ndarray = field(default_factory=lambda: np.zeros(0))
    by_type: np.ndarray = field(default_factory=lambda: np.zeros((1, 0), dtype=np.int64))
    staked: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def counts(self) -> np.ndarray:
        """Per-player fragment counts, ``(n, k)``: the view ``by_type.T``."""
        return self.by_type.T


def new_state(params: ServerFiParams, econ: EconParams) -> ServerFiState:
    return ServerFiState(params, econ, by_type=np.zeros((params.k, 0), dtype=np.int64))


def state_columns(params: ServerFiParams) -> int:
    """8-byte state entries per player: ids, productivity, credit, staked, k counts."""
    return params.k + 4


def step(state: ServerFiState, rng: np.random.Generator) -> Tuple[ServerFiState, IterationRecord]:
    """Advance the world by one iteration, mutating ``state`` in place.

    Phase order: (1) gated arrivals, (2) contributions (total value T is
    the sum over everyone active now), (3) credit-to-draw conversion,
    fragment lottery and synthesis with immediate staking, (4) staking
    payout to the freshly staked cohort, (5) rational churn, (6) mutation
    of survivor productivity. Stream consumption per iteration is: one
    normal per joiner, one uniform per lottery draw, one normal per
    survivor, in that order.

    Phase (3) converts credit to draws in float (``floor`` of the credit
    over ``lam``, exact below 2**53) and refuses, with a ValueError, an
    iteration whose draws exceed :data:`MAX_DRAWS_PER_ITERATION`. The
    draws are dealt to players in row order and scatter-added into
    ``by_type`` with ``np.add.at``, which counts a cell hit several times
    once per hit. The mint count is the per-column minimum over the k
    type rows, and ``by_type`` and ``staked`` are rewritten only on the
    columns that mint. Phase (5) first works out, per missing-count,
    whether finishing a set costs more than the projected NFT reward; it
    scans ``by_type`` for missing types only when some missing-count is
    that costly, and skips the scan (nobody can leave) otherwise.
    """
    p = state.params
    econ = state.econ
    i = state.iteration + 1

    # (1) arrivals
    cost = expected_collection_cost(p.k, p.lam)
    if state.last_per_nft_reward is None:
        gate_open = True
    else:
        gate_open = entry_gate(cost, state.last_per_nft_reward, p.payoff_horizon)
    joins = arrivals(i, p.n0, p.alpha, gate_open)
    if joins:
        state.join(init_productivity_batch(rng, joins, econ))

    n = state.active_players
    by_type = state.by_type

    # (2) contributions
    total_value = float(state.productivity.sum())

    # (3) draws, lottery, synthesis (minted NFTs stake immediately)
    credit = state.draw_credit
    credit += state.productivity
    num_draws = credit / p.lam
    np.floor(num_draws, out=num_draws)
    credit -= num_draws * p.lam
    neg = credit < 0.0
    if neg.any():
        num_draws[neg] -= 1
        credit[neg] += p.lam
    over = credit >= p.lam
    if over.any():
        num_draws[over] += 1
        credit[over] -= p.lam
    draws_total = float(num_draws.sum())
    if not draws_total <= MAX_DRAWS_PER_ITERATION:
        raise ValueError(
            f"serverfi iteration {i} needs {draws_total:.6g} lottery draws, more than "
            f"the limit of {MAX_DRAWS_PER_ITERATION} per iteration; lower the "
            "econ.productivity_* values or raise serverfi.lambda"
        )
    draws_total = int(draws_total)
    if draws_total:
        frag = draw_fragments(rng, draws_total, p.k)
        drawers = np.flatnonzero(num_draws > 0)
        frag *= state.capacity
        frag += np.repeat(drawers, num_draws[drawers].astype(np.int64))
        np.add.at(state.buffer("by_type").reshape(-1), frag, 1)
    minted = by_type.min(axis=0)
    minters = np.flatnonzero(minted > 0)
    minted = minted[minters]
    by_type[:, minters] -= minted
    state.staked[minters] += minted
    nfts_minted = int(minted.sum())

    # (4) payout to this iteration's staked cohort
    if nfts_minted > 0:
        reward = per_nft_reward(total_value, p.staking_share, nfts_minted)
        state.last_per_nft_reward = reward
    else:
        reward = 0.0

    # (5) churn
    departures = 0
    fragments_departed = 0
    credit_departed = 0.0
    if state.last_per_nft_reward is not None and n:
        # indexed by missing-count: True where finishing the set costs more
        # than the projected reward of the NFT it would mint
        leave_if_missing = (
            p.lam * p.k * _harmonic_table(p.k)
            > state.last_per_nft_reward * p.payoff_horizon
        )
        if leave_if_missing.any():
            missing = (by_type == 0).sum(axis=0)
            leave = (state.staked == 0) & leave_if_missing[missing]
            departures = int(leave.sum())
    if departures:
        fragments_departed = int(by_type.sum(axis=0)[leave].sum())
        credit_departed = float(state.draw_credit[leave].sum())
        state.keep(~leave)

    # (6) mutation of survivors
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
            "nfts_minted": float(nfts_minted),
            "staked_total": float(state.staked.sum()),
            "per_nft_reward": reward,
            "draws": float(draws_total),
            "inventory_total": float(state.by_type.sum()),
            "fragments_departed": float(fragments_departed),
            "draw_credit_total": float(state.draw_credit.sum()),
            "credit_departed": credit_departed,
        },
    )
    return state, record


@functools.lru_cache(maxsize=None)
def _harmonic_table(k: int) -> np.ndarray:
    """H_0..H_k as a read-only array for vectorized remaining-cost lookups.

    Cached per ``k`` (at most 64 entries); the array is shared between
    callers, so it is frozen against writes.
    """
    table = np.zeros(k + 1)
    for m in range(1, k + 1):
        table[m] = harmonic(m)
    table.flags.writeable = False
    return table
