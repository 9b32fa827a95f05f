"""Config-document parsing tests: defaults, strictness, field-path errors."""

import pytest

from gamefi_sim.config import ConfigError, parse_config


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
