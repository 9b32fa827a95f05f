"""Round trip: a valid config document parses to the spec built directly.

Hypothesis draws documents with a random subset of the keys at each level,
integers for number fields and ``null`` blocks. Each value is drawn as a
pair: the JSON value that goes into the document and the Python value the
spec built by hand gets, so an integer for a number field must come back
as a float. The specs are compared by value and by ``repr``, which tells
``2`` from ``2.0``.
"""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamefi_sim.config import parse_config  # noqa: E402
from gamefi_sim.core import EconParams, MAX_SEED  # noqa: E402
from gamefi_sim.harness import ExperimentSpec  # noqa: E402
from gamefi_sim.retention import RetentionParams  # noqa: E402
from gamefi_sim.serverfi import ServerFiParams  # noqa: E402


def integer(low, high):
    return st.integers(low, high).map(lambda value: (value, value))


def number(low, high):
    """A number field's value in [low, high]: an integer or a float in the document."""
    whole = st.integers(math.ceil(low), math.floor(high))
    return st.one_of(
        whole.map(lambda value: (value, float(value))),
        st.floats(low, high).map(lambda value: (value, value)),
    )


# block -> (its parameter class, in-range values by JSON key); the ranges
# keep every combination valid and tiny for the run budget
BLOCKS = {
    "econ": (EconParams, {
        "productivity_init_mean": number(0.5, 2),
        "productivity_init_sigma": number(0, 1),
        "mutation_sigma": number(0, 0.5),
        "productivity_floor": number(1e-3, 1),
    }),
    "serverfi": (ServerFiParams, {
        "lambda": number(1.001, 4),
        "k": integer(1, 64),
        "n0": integer(0, 300),
        "alpha": number(1.001, 3),
        "staking_share": number(0, 1),
        "payoff_horizon": integer(1, 100),
    }),
    "retention": (RetentionParams, {
        "top_fraction": number(0.01, 1),
        "pool_share": number(0, 1),
        "window": integer(1, 20),
        "tolerance_min": integer(1, 5),
        "tolerance_max": integer(5, 12),
        "n0": integer(0, 300),
        "alpha": number(1.001, 3),
        "equal_split": st.booleans().map(lambda value: (value, value)),
    }),
}

DOCUMENTS = st.fixed_dictionaries(
    {"model": st.sampled_from(["serverfi", "retention"]).map(lambda value: (value, value))},
    optional={
        "iterations": integer(1, 20),
        "repeats": integer(1, 5),
        "master_seed": integer(0, MAX_SEED - 1),
        **{
            name: st.one_of(st.none(), st.fixed_dictionaries({}, optional=values))
            for name, (_, values) in BLOCKS.items()
        },
    },
)


@settings(max_examples=300, deadline=None)
@given(drawn=DOCUMENTS)
def test_a_valid_document_parses_to_the_spec_built_directly(drawn):
    document, expected = {}, {}
    for key, value in drawn.items():
        if key in BLOCKS:
            document[key] = None if value is None else {k: v[0] for k, v in value.items()}
            if value is not None:
                kwargs = {"lam" if k == "lambda" else k: v[1] for k, v in value.items()}
                expected[key] = BLOCKS[key][0](**kwargs)
        else:
            document[key], expected[key] = value
    spec = parse_config(json.dumps(document))
    direct = ExperimentSpec(**expected)
    assert spec == direct
    assert repr(spec) == repr(direct)
