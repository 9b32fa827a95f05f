"""Shared agent primitives: seeded sub-streams and productivity dynamics.

Every repeat of an experiment owns one deterministic random stream derived
from (master_seed, repeat_index), so repeats can run in any order or in
parallel and still reproduce bit-identical results. Player productivity is
heterogeneous (log-normal at entry) and fluctuates over time through a
multiplicative mutation step.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, get_type_hints

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

    An item of a :class:`RepeatRecords`, built on access. ``extra`` maps
    each of the model's ``COUNTERS`` (see ``serverfi.COUNTERS`` and
    ``retention.COUNTERS``) to its float value; ``perfbench/checks.py``
    reads it.
    """

    iteration: int
    total_value: float
    active_players: int
    joins: int
    departures: int
    extra: Dict[str, float] = field(default_factory=dict)


# the IterationRecord fields a RepeatRecords table holds before the model's
# counters, in declaration order, and the type each item restores
RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord) if f.name != "extra")
_FIELD_TYPES = tuple(map(get_type_hints(IterationRecord).get, RECORD_FIELDS))
_get_fields = operator.attrgetter(*RECORD_FIELDS)


class RepeatRecords(Sequence[IterationRecord]):
    """One repeat's per-iteration observables, held as one float64 table.

    Row ``t`` is the row the model's step returned for iteration ``t + 1``.
    The :attr:`columns` are :data:`RECORD_FIELDS`, then the model's
    :attr:`counters`. Every value is a float or an int below 2**53, so
    float64 holds it exactly. An item is an :class:`IterationRecord` built
    on access (the int fields restored with ``int()``), and assigning one
    writes its row. A slice is a list, and the view compares equal to a
    list of the same records. :meth:`column` views are read-only. The table
    costs 8 bytes per column per iteration.
    """

    def __init__(self, table: np.ndarray, counters: Tuple[str, ...]) -> None:
        """Take over ``table``, whose columns are RECORD_FIELDS + ``counters``."""
        self._table = table
        self.counters = counters
        self.columns = RECORD_FIELDS + counters

    def column(self, name: str) -> np.ndarray:
        """The read-only values of column ``name``, one per iteration."""
        view = self._table[:, self.columns.index(name)]
        view.flags.writeable = False
        return view

    def _record(self, row: List[float]) -> IterationRecord:
        values = [kind(value) for kind, value in zip(_FIELD_TYPES, row)]
        extra = dict(zip(self.counters, row[len(RECORD_FIELDS):]))
        return IterationRecord(*values, extra)

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self._record(row) for row in self._table[index].tolist()]
        return self._record(self._table[operator.index(index)].tolist())

    def __setitem__(self, index: int, record: IterationRecord) -> None:
        """Write ``record``, whose ``extra`` keys are the counters in order, into its row."""
        keys = tuple(record.extra)
        if keys != self.counters:
            raise ValueError(f"record {index} has extra keys {keys}, expected {self.counters}")
        self._table[operator.index(index)] = (*_get_fields(record), *record.extra.values())

    def __iter__(self) -> Iterator[IterationRecord]:
        for row in self._table:
            yield self._record(row.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RepeatRecords) and other.counters == self.counters:
            return bool(np.array_equal(self._table, other._table))
        if isinstance(other, (RepeatRecords, list)):
            return list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return (RepeatRecords, (self._table, self.counters))


class Population:
    """Per-player columns of one repeat's active players, shared by both models.

    Entry ``j`` on the last axis of ``ids``, ``productivity`` and each
    column a model passes to ``__init__`` describes one active player.
    ``ids`` is strictly increasing: joiners get fresh ascending ids and
    departures only delete entries, so index order is id order.

    Each column is the view ``buffer(name)[..., :n]`` of a C-contiguous
    backing buffer whose last axis is ``capacity``. :meth:`join` writes a
    cohort into the slack past ``n`` and reallocates only when the buffers
    are full, doubling them. :meth:`keep` compacts the survivors into a
    spare bank of buffers, allocated once per capacity, and swaps the two
    banks. So a store allocates up to :data:`STORE_FACTOR` entries of each
    column per player it ever held at once. A growing join drops the spares
    and moves one column at a time, so it holds the new buffers and at most
    one old column, not both banks; the buffers, the copy order and every
    value are as if all were moved at once. Two rules follow. A 2-D column
    is not C-contiguous while ``capacity > n``, so ``column.reshape(-1)``
    is a copy and a scatter into it is lost: scatter through
    :meth:`tally`. And a step writes new values into a column
    (``column[...] = values``) instead of rebinding it.
    """

    def __init__(self, params: Any, econ: EconParams, **columns: np.ndarray) -> None:
        """An empty store of ``ids``, ``productivity`` and the model's empty ``columns``."""
        self.params, self.econ = params, econ
        self.iteration = self.next_id = self.capacity = 0
        columns = dict(ids=np.zeros(0, dtype=np.int64), productivity=np.zeros(0), **columns)
        # the empty columns are the first buffers, so a cohort of 0 can join
        self._buffers: Dict[str, np.ndarray] = columns
        self._spares: Dict[str, np.ndarray] = {}
        self._names = tuple(columns)
        for name, column in columns.items():
            setattr(self, name, column)

    @property
    def active_players(self) -> int:
        return len(self.ids)

    @property
    def bytes_per_player(self) -> int:
        """Bytes the store may allocate per player: STORE_FACTOR entries of each column."""
        columns = (getattr(self, name) for name in self._names)
        return STORE_FACTOR * sum(math.prod(c.shape[:-1]) * c.itemsize for c in columns)

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
        for name in self._names:
            column = self._buffers[name][..., : n + joins]
            column[..., n:] = columns.get(name, 0)
            setattr(self, name, column)

    def tally(self, name: str, rows: np.ndarray, players: np.ndarray) -> None:
        """Add 1 to entry ``(rows[i], players[i])`` of 2-D column ``name``, once per ``i``.

        ``rows``, an int64 array, is overwritten with the entries' flat buffer offsets.
        """
        rows *= self.capacity
        rows += players
        np.add.at(self._buffers[name].reshape(-1), rows, 1)

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the players where ``mask`` is True, in order."""
        rows = mask.nonzero()[0]
        kept = len(rows)
        spares = self._spares or {name: np.empty_like(b) for name, b in self._buffers.items()}
        for name in self._names:
            column, spare = getattr(self, name), spares[name]
            if column.ndim == 1:
                column.take(rows, out=spare[:kept], mode="clip")
            else:
                # row by row: a take into a strided 2-D out goes through a copy
                for source, target in zip(column, spare):
                    source.take(rows, out=target[:kept], mode="clip")
            setattr(self, name, spare[..., :kept])
        self._buffers, self._spares = spares, self._buffers

    def _grow(self, needed: int) -> None:
        """Move every column into buffers of twice the capacity, or of ``needed`` if more.

        Each column is rebound as soon as it is copied, which frees its old
        buffer before the next column's new one is allocated.
        """
        self.capacity = max(needed, 2 * self.capacity)
        self._spares.clear()
        for name in self._names:
            column = getattr(self, name)
            buffer = np.empty(column.shape[:-1] + (self.capacity,), column.dtype)
            buffer[..., : column.shape[-1]] = column
            self._buffers[name] = buffer
            setattr(self, name, buffer[..., : column.shape[-1]])


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


def _complex_exp(values: np.ndarray) -> np.ndarray:
    """Replace each value by the real part of numpy's complex exp of it, in place."""
    values[...] = np.exp(values, dtype=np.complex128).real
    return values


def exp_matches_libm(exp: Callable[[np.ndarray], np.ndarray]) -> bool:
    """Whether ``exp`` of an array has the bits of ``math.exp`` at 4096 points.

    The points are evenly spaced over [-745, 708]: from exponentials that
    underflow to a subnormal up to the largest a cohort exponentiates as
    one array (see :func:`init_productivity_batch`).
    """
    points = np.linspace(-745.0, 708.0, 4096)
    expected = np.fromiter(map(math.exp, points.tolist()), dtype=np.float64, count=len(points))
    return exp(points).tobytes() == expected.tobytes()


@functools.lru_cache(maxsize=None)
def complex_exp_is_libm() -> bool:
    """:func:`exp_matches_libm` of the complex exp, computed once per process."""
    return exp_matches_libm(_complex_exp)


def init_productivity_batch(
    rng: np.random.Generator, n: int, params: EconParams
) -> np.ndarray:
    """Draw the entry productivities of a cohort of ``n`` joiners.

    Each is log-normal with median ``productivity_init_mean``, floored at
    ``productivity_floor``: ``max(mean * math.exp(sigma * z), floor)`` for
    one standard normal ``z`` per joiner. Consumes exactly ``n`` standard
    normals, bit-identical to that scalar rule applied to ``n`` consecutive
    draws of the same stream. ``sigma * z`` and the final ``* mean`` and
    floor are vectorised: each is one correctly rounded IEEE operation, the
    same in numpy as in Python.

    The exponential must be libm's ``exp``, the one ``math.exp`` calls.
    numpy's float64 ``exp`` is its own SIMD kernel and differs from libm
    by one ulp on about 4.6% of values, which would break scalar/batch
    equivalence. So the cohort is exponentiated as the real part of
    numpy's complex ``exp`` of ``sigma * z + 0j``, which calls libm's
    ``cexp``: for a zero imaginary part glibc, musl and FreeBSD return
    ``exp(x)`` itself, and numpy's own fallback multiplies it by
    ``cos(0) = 1``. But glibc's ``cexp`` rescales a real part above 709
    as ``exp(x - 709) * exp(709)``, which differs from ``exp`` by one ulp
    on about 1 in 8 values in (709, 709.78]. So a cohort whose largest
    ``sigma * z`` exceeds 708, one below that, goes through ``math.exp``
    per element instead; there an exponential that overflows a float
    raises a ValueError naming ``econ.productivity_init_sigma``. Results
    that underflow to a subnormal or to 0.0 are the same on both paths.
    Every cohort takes the per-element path on a platform where
    :func:`complex_exp_is_libm` finds the two exponentials apart.
    """
    values = rng.standard_normal(n)
    values *= params.productivity_init_sigma
    if n and (values.max() > 708.0 or not complex_exp_is_libm()):
        try:
            values = np.fromiter(map(math.exp, values.tolist()), dtype=np.float64, count=n)
        except OverflowError:
            raise ValueError(
                f"econ.productivity_init_sigma={params.productivity_init_sigma:g} is too large: "
                "an entry productivity exp(sigma * z) overflows a float"
            ) from None
    else:
        _complex_exp(values)
    values *= params.productivity_init_mean
    return np.maximum(values, params.productivity_floor, out=values)


def mutation_shocks(draws: np.ndarray, sigma: float) -> np.ndarray:
    """Turn standard normals into growth factors ``1 + clip(sigma * z, -0.9, 0.9)``, in place.

    The clamp is two in-place ufuncs, ``np.maximum`` then ``np.minimum``:
    the same values as ``np.clip`` on every non-NaN shock, ±0.0 included,
    without its wrapper's per-call cost.
    """
    draws *= sigma
    np.maximum(draws, -0.9, out=draws)
    np.minimum(draws, 0.9, out=draws)
    draws += 1.0
    return draws


def mutate_productivity_batch(
    values: np.ndarray, rng: np.random.Generator, params: EconParams
) -> np.ndarray:
    """Apply one multiplicative productivity shock per survivor.

    The relative shock is a zero-mean normal, one per survivor, clamped to
    [-0.9, +0.9] (:func:`mutation_shocks`), so a single step can never wipe
    out (or multiply tenfold) an agent's output; the result is floored at
    ``productivity_floor``. The arithmetic runs in place on the fresh
    normal draws, so the only allocation is the returned array; ``values``
    is not modified.
    """
    out = mutation_shocks(rng.standard_normal(len(values)), params.mutation_sigma)
    out *= values
    return np.maximum(out, params.productivity_floor, out=out)
