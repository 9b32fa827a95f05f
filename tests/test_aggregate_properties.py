"""Aggregation over drawn hand-built tables equals the field-by-field reference.

For 1-6 repeats of 1-40 iterations, with totals drawn from 0.0, subnormals,
ordinary values and values near the largest float (so some rows' means
overflow), ``aggregate`` equals ``_reference_aggregate`` by ``repr``, in
the drawn repeat order and under a permutation of it. Where a mean
overflows, the reference's ``math.fsum`` raises OverflowError and
``aggregate`` raises a ValueError naming the first such iteration, with
the same text in both orders.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamefi_sim.core import RECORD_FIELDS, RepeatRecords  # noqa: E402
from gamefi_sim.harness import aggregate  # noqa: E402
from test_records import _reference_aggregate  # noqa: E402

MAX_FLOAT = np.finfo(float).max
SMALL_TOTALS = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=np.finfo(float).tiny, exclude_max=True),
    st.floats(min_value=0.0, max_value=1e6).map(abs),
)
HUGE_TOTALS = st.floats(min_value=MAX_FLOAT / 4, max_value=MAX_FLOAT)


@st.composite
def repeat_tables(draw):
    """Hand-built tables of one drawn shape, and a permutation of the repeats."""
    repeats = draw(st.integers(1, 6))
    iterations = draw(st.integers(1, 40))
    # half the shapes draw no huge total, or nearly all of them would overflow
    totals = st.one_of(SMALL_TOTALS, HUGE_TOTALS) if draw(st.booleans()) else SMALL_TOTALS
    tables = []
    for _ in range(repeats):
        table = np.zeros((iterations, len(RECORD_FIELDS)))
        table[:, RECORD_FIELDS.index("iteration")] = np.arange(1, iterations + 1)
        table[:, RECORD_FIELDS.index("total_value")] = draw(
            st.lists(totals, min_size=iterations, max_size=iterations)
        )
        table[:, RECORD_FIELDS.index("active_players")] = draw(
            st.lists(st.integers(0, 2**53), min_size=iterations, max_size=iterations)
        )
        tables.append(RepeatRecords(table, ()))
    return tables, draw(st.permutations(range(repeats)))


def _overflows(values):
    try:
        math.fsum(values)
    except OverflowError:
        return True
    return False


def _outcome(tables):
    """``repr`` of ``aggregate``'s series, or the text of its ValueError."""
    try:
        return repr(aggregate(tables))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(repeat_tables())
def test_aggregate_equals_the_reference_in_any_repeat_order(drawn):
    tables, order = drawn
    permuted = [tables[r] for r in order]
    try:
        expected = repr(_reference_aggregate(tables))
    except OverflowError:
        rows = zip(*[t.column("total_value").tolist() for t in tables])
        first = next(idx for idx, row in enumerate(rows) if _overflows(row))
        expected = f"the mean total value of iteration {first + 1} overflows a float"
        event("a mean overflows")
    assert _outcome(tables) == expected
    assert _outcome(permuted) == expected
    if not expected.startswith("the mean"):
        assert repr(_reference_aggregate(permuted)) == expected

