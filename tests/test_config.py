"""Config-document parsing tests: defaults, strictness, field-path errors."""

import dataclasses
import json
import typing
from pathlib import Path

import pytest

from gamefi_sim.config import ConfigError, parse_config
from gamefi_sim.harness import ExperimentSpec

README = Path(__file__).resolve().parents[1] / "README.md"


class TestDefaults:
    def test_minimal_document_fills_defaults(self):
        spec = parse_config('{"model": "serverfi", "master_seed": 42}')
        assert spec.model == "serverfi"
        assert spec.master_seed == 42
        assert spec.iterations == 500
        assert spec.repeats == 100
        assert spec.serverfi.lam == 2.0
        assert spec.serverfi.k == 8
        assert spec.serverfi.n0 == 200
        assert spec.serverfi.alpha == 1.02
        assert spec.serverfi.staking_share == 0.1
        assert spec.serverfi.payoff_horizon == 50
        assert spec.econ.productivity_init_mean == 1.0
        assert spec.econ.productivity_init_sigma == 0.5
        assert spec.retention.top_fraction == 0.2

    def test_headline_retention_constants_accepted(self):
        spec = parse_config(
            '{"model": "retention",'
            ' "retention": {"top_fraction": 0.2, "pool_share": 0.8, "window": 5}}'
        )
        assert spec.retention.top_fraction == 0.2
        assert spec.retention.pool_share == 0.8
        assert spec.retention.window == 5

    def test_readme_example_is_the_defaults(self):
        # the documented schema: every key, its JSON name and its default
        section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert parse_config(example) == ExperimentSpec()

    def test_partial_blocks_merge_with_defaults(self):
        spec = parse_config('{"model": "serverfi", "serverfi": {"k": 4}}')
        assert spec.serverfi.k == 4
        assert spec.serverfi.lam == 2.0


class TestRejections:
    def test_lambda_bound_message(self):
        with pytest.raises(ConfigError, match=r"serverfi\.lambda must exceed 1"):
            parse_config('{"model": "serverfi", "serverfi": {"lambda": 0.5}}')

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: bogus"):
            parse_config('{"model": "serverfi", "bogus": 1}')

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match=r"unknown key: serverfi\.beta"):
            parse_config('{"model": "serverfi", "serverfi": {"beta": 0.1}}')

    @pytest.mark.parametrize(
        "doc,key",
        [
            ('{"model": "retention", "repeats": 2, "repeats": 3}', "repeats"),
            ('{"model": "serverfi", "serverfi": {"k": 4, "bogus": 1, "k": 4}}', "k"),
            ('{"model": "retention", "retention": {"window": 5}, "retention": {"n0": 7}}',
             "retention"),
        ],
        ids=["top-level", "nested", "block"],
    )
    def test_a_duplicate_key_is_refused_before_unknown_keys(self, doc, key):
        with pytest.raises(ConfigError) as caught:
            parse_config(doc)
        assert str(caught.value) == f"duplicate key: {key}"

    def test_missing_model(self):
        with pytest.raises(ConfigError, match="model is required"):
            parse_config('{"iterations": 10}')

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model must be"):
            parse_config('{"model": "casino"}')

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config('{"model": "serverfi"')

    def test_non_object_document(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2, 3]")

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ('{"model": "serverfi", "iterations": 0}', "iterations must be at least 1"),
            ('{"model": "serverfi", "repeats": 0}', "repeats must be at least 1"),
            ('{"model": "serverfi", "master_seed": -1}', "master_seed"),
            ('{"model": "serverfi", "iterations": 2.5}', "iterations must be an integer"),
            ('{"model": "serverfi", "serverfi": {"k": true}}', r"serverfi\.k must be an integer"),
            ('{"model": "serverfi", "serverfi": {"alpha": "x"}}', r"serverfi\.alpha must be a number"),
            ('{"model": "serverfi", "econ": 3}', "econ must be an object"),
            (
                '{"model": "retention", "retention": {"tolerance_min": 7, "tolerance_max": 3}}',
                "tolerance_min must not exceed",
            ),
            (
                '{"model": "retention", "retention": {"equal_split": 1}}',
                r"retention\.equal_split must be a boolean",
            ),
            (
                '{"model": "retention", "retention": {"top_fraction": 0.0}}',
                r"retention\.top_fraction",
            ),
            ('{"model": "serverfi", "econ": {"mutation_sigma": -0.5}}', r"econ\.mutation_sigma"),
        ],
    )
    def test_field_path_errors(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(doc)


class TestNonFiniteNumbers:
    # json.loads accepts NaN and +-Infinity; one float field per block
    @pytest.mark.parametrize(
        "block,key",
        [
            ("econ", "productivity_init_mean"),
            ("serverfi", "lambda"),
            ("retention", "pool_share"),
        ],
    )
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_rejected_with_field_path(self, block, key, value):
        doc = '{"model": "serverfi", "%s": {"%s": %s}}' % (block, key, value)
        with pytest.raises(ConfigError, match=rf"^{block}\.{key} must be finite$"):
            parse_config(doc)

    def test_integer_too_large_for_a_float_rejected(self):
        doc = '{"model": "serverfi", "serverfi": {"alpha": 1%s}}' % ("0" * 400)
        with pytest.raises(ConfigError, match=r"^serverfi\.alpha must be finite$"):
            parse_config(doc)


class TestCoercions:
    def test_integers_accepted_for_float_fields(self):
        spec = parse_config('{"model": "serverfi", "serverfi": {"lambda": 2}}')
        assert spec.serverfi.lam == 2.0
        assert isinstance(spec.serverfi.lam, float)

    def test_equal_split_boolean(self):
        spec = parse_config('{"model": "retention", "retention": {"equal_split": true}}')
        assert spec.retention.equal_split is True


def spec_fields():
    """(JSON path, dataclass field, annotated type) of every field, blocks and their fields."""
    found = []
    for spec_field in dataclasses.fields(ExperimentSpec):
        kind = typing.get_type_hints(ExperimentSpec)[spec_field.name]
        found.append((spec_field.name, spec_field, kind))
        if dataclasses.is_dataclass(kind):
            for block_field in dataclasses.fields(kind):
                key = "lambda" if block_field.name == "lam" else block_field.name
                hint = typing.get_type_hints(kind)[block_field.name]
                found.append((f"{spec_field.name}.{key}", block_field, hint))
    return found


class TestTypeFromDefault:
    # the parser reads a field's JSON type from its default, so a float
    # field with an int default would turn into an integer field
    @pytest.mark.parametrize(
        "path,spec_field,kind", spec_fields(), ids=[path for path, _, _ in spec_fields()]
    )
    def test_every_default_has_its_annotated_type(self, path, spec_field, kind):
        if spec_field.default_factory is not dataclasses.MISSING:
            default = spec_field.default_factory()
        else:
            default = spec_field.default
        assert type(default) is kind, path

    # one wrong value of another JSON type, and one of a near one, per field
    WRONG = {
        bool: ("x", 1, "a boolean"),
        int: ("x", 1.5, "an integer"),
        float: ("x", True, "a number"),
    }

    @pytest.mark.parametrize(
        "path,kind",
        [pytest.param(path, kind, id=path) for path, _, kind in spec_fields() if path != "model"],
    )
    def test_a_wrong_typed_value_is_reported_by_its_path(self, path, kind):
        if dataclasses.is_dataclass(kind):
            values, message = ("x", 3, [], True), f"{path} must be an object"
        else:
            *values, noun = self.WRONG[kind]
            message = f"{path} must be {noun}"
        for value in values:
            doc = {"model": "serverfi"}
            *block, key = path.split(".")
            (doc.setdefault(block[0], {}) if block else doc)[key] = value
            with pytest.raises(ConfigError) as caught:
                parse_config(json.dumps(doc))
            assert str(caught.value) == message

    def test_a_model_of_another_type_is_refused_by_the_spec(self):
        with pytest.raises(ConfigError, match="^model must be 'serverfi' or 'retention'$"):
            parse_config('{"model": 1}')


class TestErrorOrder:
    # in every object: unknown keys first, in document order, then the
    # fields in declaration order; the spec's own checks last
    @pytest.mark.parametrize(
        "doc,message",
        [
            # the unknown key wins over the type faults before and after it
            (
                {"model": "serverfi", "serverfi": {"alpha": "x", "beta": 1, "k": "y"}},
                "unknown key: serverfi.beta",
            ),
            # k is declared before alpha, whatever the document's order
            (
                {"model": "serverfi", "serverfi": {"alpha": "x", "k": "y"}},
                "serverfi.k must be an integer",
            ),
            ({"iterations": "x", "bogus": 1, "typo": 2}, "unknown key: bogus"),
            ({"iterations": "x", "econ": 3}, "model is required ('serverfi' or 'retention')"),
            # econ is declared before retention, so its fault beats the
            # unknown key nested in retention
            (
                {"model": "serverfi", "retention": {"k": 1}, "econ": {"mutation_sigma": "y"}},
                "econ.mutation_sigma must be a number",
            ),
            (
                {"model": "serverfi", "master_seed": "x", "iterations": "y"},
                "iterations must be an integer",
            ),
            # type faults come before the spec checks the model and the ranges
            ({"model": "casino", "repeats": "x"}, "repeats must be an integer"),
            ({"model": "serverfi", "iterations": 0, "repeats": "x"}, "repeats must be an integer"),
        ],
    )
    def test_first_fault_reported(self, doc, message):
        with pytest.raises(ConfigError) as caught:
            parse_config(json.dumps(doc))
        assert str(caught.value) == message

    def test_null_block_keeps_its_defaults(self):
        doc = {"model": "serverfi", "econ": None, "serverfi": None, "retention": None}
        assert parse_config(json.dumps(doc)) == ExperimentSpec()
