"""Property tests: ``simulate`` and ``report`` run or fail cleanly, whatever their input.

Hypothesis builds config documents (valid, invalid, mistyped, non-finite,
malformed JSON) and flag sets. Every call must return 0, 1 or 2, raise
nothing, warn nothing and, on failure, print exactly one ``error:`` line and
leave no output or temp file behind.

Values that set how much work a run does stay small, so the property runs
in seconds, but some of them also take huge values. Huge ``n0``,
``window``, iterations and repeats must be refused by the run budget with
exit 1. A huge productivity mean, floor or entry sigma must either run or
exit 1 on the draws limit or a float overflow. Only ``mutation_sigma`` and
``--workers`` stay small-only. Every other field also gets huge and
non-finite values.

A serverfi run at default ``k`` and ``lambda`` first mints at about
iteration 12, and only after a mint do the entry gate and the churn test
multiply by ``payoff_horizon``. So ``k`` is often 1 and ``lambda`` often
below 2, which mint within the 12 iterations, and an explicit example runs
a minting config with a ``payoff_horizon`` of ``10**400``.

Two more properties write raw bytes, arbitrary or a valid config or series
CSV with arbitrary bytes spliced in, as ``simulate``'s config and as
``report``'s CSV. The same rule holds, and a report that exits 0 prints
strict JSON (no ``NaN`` or ``Infinity``).
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamefi_sim.analysis import CSV_HEADER  # noqa: E402
from gamefi_sim.cli import cli_main  # noqa: E402

BAD_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
HUGE_INTS = st.sampled_from([2**53, 2**63 - 1, 2**63, 2**64, 10**30, 10**400])
HUGE_FLOATS = st.sampled_from([1e300, 1.7976931348623157e308])
HUGE_PRODUCTIVITY = st.sampled_from([1e150, 1e200, 1e300, 1.7976931348623157e308])

# In-domain values for every config field. The ones that size the run stay
# small or, where the run budget, the draws limit or the overflow guard bounds
# them, are huge; the others also take huge values.
FIELDS = {
    "econ": {
        "productivity_init_mean": st.one_of(st.floats(1e-3, 3), HUGE_PRODUCTIVITY),
        "productivity_init_sigma": st.one_of(st.floats(0, 1), st.sampled_from([9, 800, 1e300])),
        "mutation_sigma": st.floats(0, 0.5),
        "productivity_floor": st.one_of(st.floats(1e-300, 3), HUGE_PRODUCTIVITY),
    },
    "serverfi": {
        # k 1 or a lambda near 1 mints within the 12-iteration cap, so the
        # entry gate and the churn test multiply by payoff_horizon
        "lambda": st.one_of(st.floats(1.001, 20), st.floats(1.001, 2), HUGE_FLOATS),
        "k": st.one_of(st.just(1), st.integers(1, 64)),
        "n0": st.one_of(st.integers(0, 60), HUGE_INTS),
        "alpha": st.one_of(st.floats(1.001, 3), HUGE_FLOATS),
        "staking_share": st.floats(0, 1),
        "payoff_horizon": st.one_of(st.integers(1, 100), HUGE_INTS),
    },
    "retention": {
        "top_fraction": st.floats(1e-3, 1),
        "pool_share": st.floats(0, 1),
        "window": st.one_of(st.integers(1, 300), HUGE_INTS),
        "tolerance_min": st.one_of(st.integers(1, 12), HUGE_INTS),
        "tolerance_max": st.one_of(st.integers(1, 12), HUGE_INTS),
        "n0": st.one_of(st.integers(0, 60), HUGE_INTS),
        "alpha": st.one_of(st.floats(1.001, 3), HUGE_FLOATS),
        "equal_split": st.booleans(),
    },
}
SIZING = {"iterations", "repeats", "n0", "window", "productivity_init_mean",
          "productivity_init_sigma", "mutation_sigma", "productivity_floor"}
PATHS = [("model",), ("master_seed",), ("iterations",), ("repeats",)] + [
    (block, key) for block, fields in FIELDS.items() for key in fields
] + [(block,) for block in FIELDS]


def bad_value(key):
    """An out-of-domain value; one that sizes the run is never huge."""
    if key in SIZING:
        return st.one_of(BAD_SCALARS, st.integers(-3, 0), st.floats(-3, 0))
    return st.one_of(BAD_SCALARS, st.integers(-(10**30), 10**30), st.floats())


@st.composite
def documents(draw):
    """A config document: valid, or valid but for one defect."""
    doc = {
        "model": draw(st.sampled_from(["serverfi", "retention"])),
        "iterations": draw(st.one_of(st.integers(1, 12), HUGE_INTS)),
        "repeats": draw(st.one_of(st.integers(1, 3), HUGE_INTS)),
    }
    if draw(st.booleans()):
        doc["master_seed"] = draw(st.integers(0, 2**64 - 1))
    for block, fields in FIELDS.items():
        doc[block] = draw(st.fixed_dictionaries({}, optional=fields))
    if doc["retention"].get("tolerance_min", 0) > doc["retention"].get("tolerance_max", 2**70):
        doc["retention"]["tolerance_max"] = doc["retention"]["tolerance_min"]
    defect = draw(st.sampled_from(["none", "none", "value", "unknown_key", "no_model", "text"]))
    if defect == "text":
        return draw(st.text(max_size=20))
    path = draw(st.sampled_from(PATHS))
    *parents, key = path
    target = doc[parents[0]] if parents else doc
    if defect == "value":
        target[key] = draw(bad_value(key))
    elif defect == "unknown_key":
        target[key + "_typo"] = 1
    elif defect == "no_model":
        # the one required key (a missing run size would fall back to 500 x 100)
        doc.pop("model")
    return json.dumps(doc)


FLAGS = {
    "--seed": st.integers(0, 2**64 - 1),
    "--iterations": st.one_of(st.integers(1, 12), HUGE_INTS),
    "--repeats": st.one_of(st.integers(1, 3), HUGE_INTS),
    "--workers": st.integers(1, 3),
}
MALFORMED = ["", "x", "1.5", "-1", "0"]
# out of range, but not run-sizing: a huge --iterations or --repeats is
# in range and refused by the run budget
BAD_FLAGS = {"--seed": MALFORMED + [str(2**64)], "--workers": MALFORMED + [str(2**64)]}


@st.composite
def flags(draw):
    """Override flags, each valid, or one of them malformed or out of range."""
    values = draw(st.fixed_dictionaries({}, optional={f: s.map(str) for f, s in FLAGS.items()}))
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(FLAGS)))
        values[flag] = draw(st.sampled_from(BAD_FLAGS.get(flag, MALFORMED)))
    return [part for flag, value in values.items() for part in (flag, value)]


@settings(max_examples=200, deadline=None)
@example(
    document=json.dumps({
        "model": "serverfi", "iterations": 12, "repeats": 1,
        "serverfi": {"k": 1, "lambda": 1.001, "payoff_horizon": 10**400},
    }),
    extra=[],
    report=False,
    out_dir="",
)
@given(
    document=documents(),
    extra=flags(),
    report=st.booleans(),
    out_dir=st.sampled_from(["", "missing"]),
)
def test_simulate_exits_cleanly_and_never_leaves_partial_output(
    document, extra, report, out_dir
):
    with tempfile.TemporaryDirectory() as root:
        config = os.path.join(root, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(document)
        out = os.path.join(root, out_dir, "run.csv")
        argv = ["simulate", "--config", config, "--out", out] + extra
        if report:
            argv += ["--report", os.path.join(root, "report.json")]
        code, _, err = call(argv)
        left = sorted(os.listdir(root))
    outputs = ["run.csv"] + (["report.json"] if report else [])
    assert_exits_cleanly(code, err, left, ["config.json"], outputs)


def call(argv):
    """Run ``cli_main(argv)`` with warnings as errors; return code, stdout, stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_exits_cleanly(code, err, left, inputs, outputs):
    """Exit 0 writes every output and no error; exit 1 or 2 one ``error:`` line
    and no output. Either way only the inputs and outputs are left."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert left == sorted(inputs + outputs)
    else:
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert left == sorted(inputs)


def splice(parts):
    text, junk, at = parts
    cut = int(at * len(text))
    return text[:cut] + junk + text[cut:]


def raw(valid):
    """Arbitrary bytes, or the bytes of ``valid`` with arbitrary bytes spliced in."""
    return st.one_of(
        st.binary(max_size=80),
        st.tuples(valid, st.binary(min_size=1, max_size=8), st.floats(0, 1)).map(splice),
    )


@st.composite
def series_csvs(draw):
    """A series CSV as write_series_csv renders it, of 0 to 14 rows."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(finite, min_size=4, max_size=4), max_size=14))
    lines = [CSV_HEADER] + [
        ",".join([str(number)] + [format(value, ".6g") for value in row])
        for number, row in enumerate(rows, start=1)
    ]
    return ("\n".join(lines) + "\n").encode()


def strict_json(text):
    """Parse JSON, refusing NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=200, deadline=None)
@given(config=raw(documents().map(str.encode)), report=st.booleans())
def test_simulate_on_arbitrary_config_bytes_exits_cleanly(config, report):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "config.json")
        with open(path, "wb") as handle:
            handle.write(config)
        # a run, if the bytes happen to be a valid config, stays tiny
        argv = ["simulate", "--config", path, "--out", os.path.join(root, "run.csv"),
                "--iterations", "12", "--repeats", "2"]
        if report:
            argv += ["--report", os.path.join(root, "report.json")]
        code, _, err = call(argv)
        left = sorted(os.listdir(root))
    outputs = ["run.csv"] + (["report.json"] if report else [])
    assert_exits_cleanly(code, err, left, ["config.json"], outputs)


@settings(max_examples=200, deadline=None)
@given(series=raw(series_csvs()))
def test_report_on_arbitrary_csv_bytes_exits_cleanly(series):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "run.csv")
        with open(path, "wb") as handle:
            handle.write(series)
        code, out, err = call(["report", "--in", path])
        left = sorted(os.listdir(root))
    assert_exits_cleanly(code, err, left, ["run.csv"], [])
    if code == 0:
        assert set(strict_json(out)) == {
            "late_slope", "peak_iteration", "final_to_peak_ratio", "early_peak"
        }
    else:
        assert out == ""
