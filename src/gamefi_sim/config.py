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

import dataclasses
import json
import math
import typing
from typing import Any, Dict, Tuple

from .harness import ExperimentSpec


class ConfigError(ValueError):
    """Raised for malformed documents, unknown keys, or out-of-range values."""


# JSON key -> dataclass field, where the two differ
_ALIASES = {"lambda": "lam"}


def _block_fields(block: type) -> Dict[str, Tuple[str, type]]:
    """JSON key -> (dataclass field, python type) for one parameter block."""
    keys = {name: key for key, name in _ALIASES.items()}
    hints = typing.get_type_hints(block)
    return {keys.get(f.name, f.name): (f.name, hints[f.name]) for f in dataclasses.fields(block)}


# top-level keys in ExperimentSpec order, which is the order their errors are
# reported in; a field with a default factory is a parameter block
_SPEC_FIELDS = dataclasses.fields(ExperimentSpec)
_TOP_LEVEL_KEYS = tuple(f.name for f in _SPEC_FIELDS)
_BLOCK_FIELDS = {
    f.name: _block_fields(f.default_factory)
    for f in _SPEC_FIELDS
    if f.default_factory is not dataclasses.MISSING
}


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


def _parse_block(raw: Any, block: type, path: str) -> Any:
    if raw is None:
        return block()
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    fields = _BLOCK_FIELDS[path]
    kwargs: Dict[str, Any] = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"unknown key: {path}.{key}")
        field_name, kind = fields[key]
        kwargs[field_name] = _coerce(value, kind, f"{path}.{key}")
    return block(**kwargs)


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

    values: Dict[str, Any] = {"model": raw["model"]}
    for spec_field in _SPEC_FIELDS[1:]:
        name = spec_field.name
        if name in _BLOCK_FIELDS:
            values[name] = _parse_block(raw.get(name), spec_field.default_factory, name)
        else:
            default = spec_field.default
            values[name] = _coerce(raw.get(name, default), type(default), name)
    try:
        return ExperimentSpec(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
