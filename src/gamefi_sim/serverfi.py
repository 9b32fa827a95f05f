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
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import (
    EconParams,
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


def harmonic(n: int) -> float:
    """H_n = sum_{i=1..n} 1/i, with H_0 = 0."""
    return sum(1.0 / i for i in range(1, n + 1))


def draw_fragments(rng: np.random.Generator, num_draws: int, k: int) -> np.ndarray:
    """Draw ``num_draws`` fragment indices, each uniform on {0..k-1}.

    Consumes exactly ``num_draws`` uniforms from ``rng``.
    """
    u = rng.random(num_draws)
    return (u * k).astype(np.int64)


def expected_collection_cost(k: int, lam: float) -> float:
    """Expected value a newcomer must contribute to complete a full set.

    Classic coupon-collector result: k * H_k draws on average, each draw
    costing ``lam`` of contributed value.
    """
    return lam * k * harmonic(k)


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


# The counters a step's row holds after core.RECORD_FIELDS: this iteration's
# NFTs minted, the NFTs staked, the per-NFT reward (0.0 with no mint), the
# draws, the unminted fragments held, the fragments departed, the credit held
# and the credit departed.
COUNTERS = (
    "nfts_minted", "staked_total", "per_nft_reward", "draws", "inventory_total",
    "fragments_departed", "draw_credit_total", "credit_departed",
)


@dataclass
class ServerFiState(Population):
    """World state of one repeat: a population with draw credit, fragment
    counts and staked NFTs per player.

    ``last_per_nft_reward`` is None until the first payout event: with no
    observed reward to project from, rational agents have no basis to stay
    out (the gate is open) or to quit (churn is inactive).

    ``by_type`` counts every fragment a player has ever drawn, per type,
    type-major ``(k, n)``, and is never decremented. Every mint takes one
    fragment of each type and NFT holders never leave, so ``staked`` is
    the per-player minimum of ``by_type`` over the types, and ``counts``,
    the ``(n, k)`` inventory left to mint from, is ``(by_type - staked).T``,
    computed on access. A player draws at most 2**24 fragments an
    iteration over at most 2**20 iterations, so a cumulative count stays
    below 2**44, far inside int64. Each per-type pass of the step (the
    mint minimum, the missing-type scan) reads one contiguous row.

    ``staked_total`` and ``fragments_held`` are the sums of ``staked`` and
    ``by_type`` over the players, kept as Python ints so that a step sums
    neither: only players with nothing staked leave, and joiners start at
    zero, so a step's mints are the rise in ``staked_total``, and
    ``fragments_held`` gains the step's draws and loses what the leavers
    had drawn.
    """

    COLUMNS = ("draw_credit", "by_type", "staked")

    last_per_nft_reward: Optional[float] = None
    staked_total: int = 0
    fragments_held: int = 0
    draw_credit: np.ndarray = field(default_factory=lambda: np.zeros(0))
    by_type: np.ndarray = field(default_factory=lambda: np.zeros((1, 0), dtype=np.int64))
    staked: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def counts(self) -> np.ndarray:
        """Per-player fragment inventory, ``(n, k)``: ``(by_type - staked).T``."""
        return (self.by_type - self.staked).T


def new_state(params: ServerFiParams, econ: EconParams) -> ServerFiState:
    return ServerFiState(params, econ, by_type=np.zeros((params.k, 0), dtype=np.int64))


def state_columns(params: ServerFiParams) -> int:
    """8-byte state entries per player: ids, productivity, credit, staked, k counts."""
    return params.k + 4


def step(state: ServerFiState, rng: np.random.Generator) -> Tuple[ServerFiState, Tuple]:
    """Advance the world by one iteration, mutating ``state`` in place.

    Phase order: (1) gated arrivals, (2) contributions (total value T is
    the sum over everyone active now), (3) credit-to-draw conversion,
    fragment lottery and synthesis with immediate staking, (4) staking
    payout to the freshly staked cohort, (5) rational churn, (6) mutation
    of survivor productivity. Stream consumption per iteration is: one
    normal per joiner, one uniform per lottery draw, one normal per
    survivor, in that order. Returns the state and the iteration's row:
    the ``core.RECORD_FIELDS``, then the :data:`COUNTERS`.

    Phase (3) converts credit to draws in float (``floor`` of the credit
    over ``lam``, exact below 2**53) and refuses, with a ValueError, an
    iteration whose draws exceed :data:`MAX_DRAWS_PER_ITERATION`. The
    draws are dealt to players in row order and tallied into ``by_type``,
    one count per hit. Synthesis writes the per-column minimum of the k
    cumulative type rows into ``staked``, and the iteration's mint count
    is the rise in ``staked``'s sum; ``by_type`` is not written. Phase (5)
    skips the churn scan (nobody can leave) unless finishing a full set,
    the costliest case, costs more than the projected NFT reward. Then it
    works out, per missing-count, whether finishing costs that much, and
    counts a player's missing types as those whose cumulative count
    equals ``staked``.
    """
    p = state.params
    econ = state.econ
    i = state.iteration + 1

    # (1) arrivals
    cost = expected_collection_cost(p.k, p.lam)
    last_reward = state.last_per_nft_reward
    gate_open = last_reward is None or entry_gate(cost, last_reward, p.payoff_horizon)
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
        state.tally("by_type", frag, np.repeat(drawers, num_draws[drawers].astype(np.int64)))
    state.fragments_held += draws_total
    staked = state.staked
    by_type.min(axis=0, out=staked)
    staked_total = int(staked.sum())
    nfts_minted = staked_total - state.staked_total
    state.staked_total = staked_total

    # (4) payout to this iteration's staked cohort
    reward = per_nft_reward(total_value, p.staking_share, nfts_minted)
    if nfts_minted > 0:
        state.last_per_nft_reward = reward

    # (5) churn
    departures = 0
    fragments_departed = 0
    credit_departed = 0.0
    if state.last_per_nft_reward is not None and n:
        payoff = state.last_per_nft_reward * p.payoff_horizon
        # finishing the full set (cost, the table's last entry) costs the
        # most: unless it costs more than the projected reward, nobody can leave
        if cost > payoff:
            # indexed by missing-count: True where finishing the set costs
            # more than the projected reward of the NFT it would mint
            leave_if_missing = p.lam * p.k * _harmonic_table(p.k) > payoff
            missing = (by_type == staked).sum(axis=0)
            leave = (staked == 0) & leave_if_missing[missing]
            departures = int(leave.sum())
    if departures:
        fragments_departed = int(by_type.sum(axis=0)[leave].sum())
        state.fragments_held -= fragments_departed
        credit_departed = float(state.draw_credit[leave].sum())
        state.keep(~leave)

    # (6) mutation of survivors
    if state.active_players:
        state.productivity[...] = mutate_productivity_batch(state.productivity, rng, econ)

    state.iteration = i
    return state, (
        i, total_value, n, joins, departures, nfts_minted, staked_total, reward, draws_total,
        state.fragments_held - p.k * staked_total, fragments_departed,
        state.draw_credit.sum(), credit_departed,
    )


def coast(state: ServerFiState, rng: np.random.Generator, rows: np.ndarray) -> int:
    """Fill no rows: a serverfi player keeps drawing fragments, so each row
    depends on that step's draws."""
    return 0


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
