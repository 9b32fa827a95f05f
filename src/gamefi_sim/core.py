"""Shared agent primitives: seeded sub-streams and productivity dynamics.

Every repeat of an experiment owns one deterministic random stream derived
from (master_seed, repeat_index), so repeats can run in any order or in
parallel and still reproduce bit-identical results. Player productivity is
heterogeneous (log-normal at entry) and fluctuates over time through a
multiplicative mutation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Tuple

import numpy as np

MAX_SEED = 2**64


@dataclass(frozen=True)
class EconParams:
    """Population-level knobs for productivity draws and mutation noise.

    ``productivity_init_mean`` is the median of the log-normal entry
    distribution; ``productivity_floor`` keeps agents from degenerating to
    zero output after repeated negative shocks.
    """

    productivity_init_mean: float = 1.0
    productivity_init_sigma: float = 0.5
    mutation_sigma: float = 0.1
    productivity_floor: float = 0.01

    def validate(self, prefix: str = "econ") -> None:
        if not self.productivity_init_mean > 0:
            raise ValueError(f"{prefix}.productivity_init_mean must be positive")
        if not self.productivity_init_sigma >= 0:
            raise ValueError(f"{prefix}.productivity_init_sigma must be non-negative")
        if not self.mutation_sigma >= 0:
            raise ValueError(f"{prefix}.mutation_sigma must be non-negative")
        if not self.productivity_floor > 0:
            raise ValueError(f"{prefix}.productivity_floor must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """Observables for one simulated iteration (day) of one repeat.

    ``extra`` carries model-specific counters, e.g. ``nfts_minted`` /
    ``staked_total`` / ``per_nft_reward`` for the synthesis economy and
    ``payout_total`` / ``winner_count`` for the retention economy.
    """

    iteration: int
    total_value: float
    active_players: int
    joins: int
    departures: int
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Population:
    """Per-player columns of one repeat's active players, shared by both models.

    Entry ``j`` on the last axis of ``ids``, ``productivity`` and each
    column a model names in ``COLUMNS`` describes one active player. Every
    column is C-contiguous, since :meth:`join` and :meth:`keep` return fresh
    arrays (a 2-D column's ``reshape(-1)`` is then a view; after a
    ``[:, mask]`` selection it would be a copy). ``ids`` is strictly
    increasing: joiners get fresh ascending ids and departures only delete
    entries, so index order is id order.
    """

    COLUMNS: ClassVar[Tuple[str, ...]] = ()

    params: Any
    econ: EconParams
    iteration: int = 0
    next_id: int = 0
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    productivity: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def active_players(self) -> int:
        return len(self.ids)

    def join(self, productivity: np.ndarray, **columns: np.ndarray) -> None:
        """Append a cohort with fresh ids; a column not given is zero-filled."""
        joins = len(productivity)
        columns.update(ids=np.arange(self.next_id, self.next_id + joins), productivity=productivity)
        self.next_id += joins
        for name in ("ids", "productivity") + self.COLUMNS:
            old = getattr(self, name)
            new = columns[name] if name in columns else np.zeros(old.shape[:-1] + (joins,), old.dtype)
            setattr(self, name, np.concatenate([old, new], axis=-1))

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the players where ``mask`` is True, in order."""
        rows = np.flatnonzero(mask)
        for name in ("ids", "productivity") + self.COLUMNS:
            setattr(self, name, getattr(self, name).take(rows, axis=-1))


def cohort_size(iteration: int, n0: int, alpha: float) -> int:
    """Size of the day-``iteration`` cohort: floor(n0 / alpha^(iteration-1)).

    A decay factor too large for a float means a cohort of 0, the limit of
    the law, rather than an OverflowError.
    """
    try:
        decay = alpha ** (iteration - 1)
    except OverflowError:
        return 0
    return int(math.floor(n0 / decay))


def derive_stream(master_seed: int, repeat_index: int) -> np.random.Generator:
    """Build the deterministic random stream for one repeat.

    Sub-streams are derived by hashing (master_seed, repeat_index) through
    numpy's SeedSequence, which guarantees platform-independent draw
    sequences and statistically independent streams across repeat indices.
    """
    if not 0 <= master_seed < MAX_SEED:
        raise ValueError("master_seed must be a non-negative 64-bit integer")
    if repeat_index < 0:
        raise ValueError("repeat_index must be non-negative")
    seq = np.random.SeedSequence((master_seed, repeat_index))
    return np.random.Generator(np.random.PCG64(seq))


def _sigma_overflow(params: EconParams) -> ValueError:
    return ValueError(
        f"econ.productivity_init_sigma={params.productivity_init_sigma:g} is too large: "
        "an entry productivity exp(sigma * z) overflows a float"
    )


def init_productivity(rng: np.random.Generator, params: EconParams) -> float:
    """Draw one entry productivity: log-normal with median ``init_mean``.

    Raises ValueError naming ``econ.productivity_init_sigma`` when
    ``exp(sigma * z)`` overflows a float.
    """
    z = rng.standard_normal()
    try:
        growth = math.exp(params.productivity_init_sigma * z)
    except OverflowError:
        raise _sigma_overflow(params) from None
    value = params.productivity_init_mean * growth
    return max(value, params.productivity_floor)


def init_productivity_batch(
    rng: np.random.Generator, n: int, params: EconParams
) -> np.ndarray:
    """Vector form of :func:`init_productivity` for a cohort of ``n`` joiners.

    Consumes exactly ``n`` standard normals, bit-identical to ``n``
    consecutive scalar calls on the same stream. ``sigma * z`` and the
    final ``* mean`` and floor are vectorised: each is one correctly
    rounded IEEE operation, the same in numpy as in Python. The
    exponential goes through math.exp per element (mapped over a list of
    Python floats): numpy's vectorized exp can differ from libm by one
    ulp, which would break scalar/batch equivalence. An overflowing
    exponential raises the same ValueError as the scalar form.
    """
    scaled = rng.standard_normal(n)
    scaled *= params.productivity_init_sigma
    try:
        values = np.fromiter(map(math.exp, scaled.tolist()), dtype=np.float64, count=n)
    except OverflowError:
        raise _sigma_overflow(params) from None
    values *= params.productivity_init_mean
    return np.maximum(values, params.productivity_floor, out=values)


def mutate_productivity(v: float, rng: np.random.Generator, params: EconParams) -> float:
    """Apply one multiplicative productivity shock.

    The relative shock is a zero-mean normal clamped to [-0.9, +0.9], so a
    single step can never wipe out (or multiply tenfold) an agent's output;
    the result is floored at ``productivity_floor``.
    """
    z = rng.standard_normal()
    eps = min(max(params.mutation_sigma * z, -0.9), 0.9)
    return max(v * (1.0 + eps), params.productivity_floor)


def mutate_productivity_batch(
    values: np.ndarray, rng: np.random.Generator, params: EconParams
) -> np.ndarray:
    """Vector form of :func:`mutate_productivity`; one normal per survivor.

    The arithmetic runs in place on the fresh normal draws, so the only
    allocation is the returned array; ``values`` is not modified.
    """
    out = rng.standard_normal(len(values))
    out *= params.mutation_sigma
    np.clip(out, -0.9, 0.9, out=out)
    out += 1.0
    out *= values
    return np.maximum(out, params.productivity_floor, out=out)
