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

# Entries of each column a Population may allocate per player it held at
# once: a backing buffer grown by doubling (under twice the players) plus the
# spare buffer keep compacts into.
STORE_FACTOR = 4


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

    def validate(self) -> None:
        if not self.productivity_init_mean > 0:
            raise ValueError("econ.productivity_init_mean must be positive")
        if not self.productivity_init_sigma >= 0:
            raise ValueError("econ.productivity_init_sigma must be non-negative")
        if not self.mutation_sigma >= 0:
            raise ValueError("econ.mutation_sigma must be non-negative")
        if not self.productivity_floor > 0:
            raise ValueError("econ.productivity_floor must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """Observables for one simulated iteration (day) of one repeat.

    ``extra`` holds model-specific float counters, read by ``perfbench/checks.py``.
    serverfi: this iteration's ``nfts_minted``, ``draws``, ``per_nft_reward``
    (0.0 with no mint), ``fragments_departed`` and ``credit_departed``, and
    the ``staked_total``, ``inventory_total`` and ``draw_credit_total`` the
    remaining players hold. retention: ``payout_total``, ``winner_count``
    and ``window_total_sum`` (the total the reward pool is a share of).
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
    column a model names in ``COLUMNS`` describes one active player. ``ids``
    is strictly increasing: joiners get fresh ascending ids and departures
    only delete entries, so index order is id order.

    Each column is the view ``buffer(name)[..., :n]`` of a C-contiguous
    backing buffer whose last axis is ``capacity``. :meth:`join` writes a
    cohort into the slack past ``n`` and reallocates only when the buffers
    are full, doubling them. :meth:`keep` compacts the survivors into a
    second, reused buffer and swaps the two. So a store allocates up to
    :data:`STORE_FACTOR` entries of each column per player it ever held at
    once. Two rules follow. A 2-D column is not C-contiguous while
    ``capacity > n``, so ``column.reshape(-1)`` is a copy: address entry
    ``(row, j)`` as ``row * capacity + j`` in ``buffer(name).reshape(-1)``.
    And a step writes new values into a column (``column[...] = values``)
    instead of rebinding it.
    """

    COLUMNS: ClassVar[Tuple[str, ...]] = ()

    params: Any
    econ: EconParams
    iteration: int = 0
    next_id: int = 0
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    productivity: np.ndarray = field(default_factory=lambda: np.zeros(0))
    capacity: int = field(default=0, init=False)
    _buffers: Dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _spares: Dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def active_players(self) -> int:
        return len(self.ids)

    def _names(self) -> Tuple[str, ...]:
        return ("ids", "productivity") + self.COLUMNS

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing and spare buffers of every column."""
        return sum(b.nbytes for b in (*self._buffers.values(), *self._spares.values()))

    def buffer(self, name: str) -> np.ndarray:
        """The backing buffer of column ``name``; its last axis is ``capacity``."""
        return self._buffers[name]

    def join(self, productivity: np.ndarray, **columns: np.ndarray) -> None:
        """Append a cohort with fresh ids; a column not given is zero-filled."""
        n = self.active_players
        joins = len(productivity)
        columns.update(ids=np.arange(self.next_id, self.next_id + joins), productivity=productivity)
        self.next_id += joins
        if n + joins > self.capacity:
            self._grow(n + joins)
        for name in self._names():
            column = self._buffers[name][..., : n + joins]
            column[..., n:] = columns.get(name, 0)
            setattr(self, name, column)

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the players where ``mask`` is True, in order."""
        rows = np.flatnonzero(mask)
        kept = len(rows)
        for name in self._names():
            spare = self._spares.get(name)
            if spare is None:
                spare = np.empty_like(self._buffers[name])
            column = getattr(self, name)
            if column.ndim == 1:
                column.take(rows, out=spare[:kept], mode="clip")
            else:
                # row by row: a take into a strided 2-D out goes through a copy
                for source, target in zip(column, spare):
                    source.take(rows, out=target[:kept], mode="clip")
            self._spares[name], self._buffers[name] = self._buffers[name], spare
            setattr(self, name, spare[..., :kept])

    def _grow(self, needed: int) -> None:
        """Move every column into buffers of twice the capacity, or of ``needed`` if more."""
        self.capacity = max(needed, 2 * self.capacity)
        self._spares.clear()
        for name in self._names():
            column = getattr(self, name)
            buffer = np.empty(column.shape[:-1] + (self.capacity,), column.dtype)
            buffer[..., : column.shape[-1]] = column
            self._buffers[name] = buffer


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
