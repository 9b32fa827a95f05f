"""JSON experiment configuration: defaults, strict schema, field-path errors.

A config document has one top-level key per parameter block plus the run
controls. Missing keys fall back to the documented defaults; unknown keys
are rejected rather than ignored so typos cannot silently change a run.

Example::

    {
      "model": "serverfi",
      "master_seed": 42,
      "iterations": 500,
      "repeats": 100,
      "econ":      {"productivity_init_sigma": 0.5},
      "serverfi":  {"lambda": 2.0, "k": 8, "n0": 200, "alpha": 1.02},
      "retention": {"top_fraction": 0.2, "pool_share": 0.8, "window": 5}
    }
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Mapping, Tuple

from .core import EconParams
from .harness import ExperimentSpec, validate_spec
from .retention import RetentionParams
from .serverfi import ServerFiParams


class ConfigError(ValueError):
    """Raised for malformed documents, unknown keys, or out-of-range values."""


# JSON key -> (dataclass field, python type)
_ECON_FIELDS = {
    "productivity_init_mean": ("productivity_init_mean", float),
    "productivity_init_sigma": ("productivity_init_sigma", float),
    "mutation_sigma": ("mutation_sigma", float),
    "productivity_floor": ("productivity_floor", float),
}
_SERVERFI_FIELDS = {
    "lambda": ("lam", float),
    "k": ("k", int),
    "n0": ("n0", int),
    "alpha": ("alpha", float),
    "staking_share": ("staking_share", float),
    "payoff_horizon": ("payoff_horizon", int),
}
_RETENTION_FIELDS = {
    "top_fraction": ("top_fraction", float),
    "pool_share": ("pool_share", float),
    "window": ("window", int),
    "tolerance_min": ("tolerance_min", int),
    "tolerance_max": ("tolerance_max", int),
    "n0": ("n0", int),
    "alpha": ("alpha", float),
    "equal_split": ("equal_split", bool),
}
_TOP_LEVEL_KEYS = (
    "model",
    "iterations",
    "repeats",
    "master_seed",
    "econ",
    "serverfi",
    "retention",
)


def _coerce(value: Any, kind: type, path: str) -> Any:
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path} must be finite")
        return number
    raise AssertionError(f"unsupported field type {kind!r}")


def _parse_block(
    raw: Any, fields: Mapping[str, Tuple[str, type]], path: str
) -> Dict[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    kwargs: Dict[str, Any] = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"unknown key: {path}.{key}")
        field_name, kind = fields[key]
        kwargs[field_name] = _coerce(value, kind, f"{path}.{key}")
    return kwargs


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON document into a validated :class:`ExperimentSpec`."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown key: {key}")

    if "model" not in raw:
        raise ConfigError("model is required ('serverfi' or 'retention')")
    model = raw["model"]
    if model not in ("serverfi", "retention"):
        raise ConfigError("model must be 'serverfi' or 'retention'")

    spec = ExperimentSpec(
        model=model,
        econ=EconParams(**_parse_block(raw.get("econ"), _ECON_FIELDS, "econ")),
        serverfi=ServerFiParams(
            **_parse_block(raw.get("serverfi"), _SERVERFI_FIELDS, "serverfi")
        ),
        retention=RetentionParams(
            **_parse_block(raw.get("retention"), _RETENTION_FIELDS, "retention")
        ),
        iterations=_coerce(raw.get("iterations", 500), int, "iterations"),
        repeats=_coerce(raw.get("repeats", 100), int, "repeats"),
        master_seed=_coerce(raw.get("master_seed", 0), int, "master_seed"),
    )
    try:
        validate_spec(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec
