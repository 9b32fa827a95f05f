"""JSON experiment configuration: defaults, strict schema, field-path errors.

A config document has one top-level key per parameter block plus the run
controls. Missing keys fall back to the documented defaults; unknown keys
are rejected rather than ignored so typos cannot silently change a run.
A key may appear once in its object: a duplicate is refused like invalid
JSON, before any other rule, rather than letting the last one win.

One rule, read from the dataclass fields, parses the document as the
:class:`ExperimentSpec` block. A field with a default factory is a nested
block (``null`` keeps its defaults); any other field takes the JSON type of
its default, integers accepted for numbers. ``model`` is required and the
spec checks it. In each block unknown keys are reported first, in document
order, then the fields in declaration order.

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
from typing import Any, Dict, List, Tuple

from .harness import ExperimentSpec


class ConfigError(ValueError):
    """Raised for malformed documents, unknown keys, or out-of-range values."""


# dataclass field -> JSON key, where the two differ
_JSON_KEYS = {"lam": "lambda"}


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """``json.loads`` object hook: the object's dict, refusing a repeated key."""
    obj: Dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key: {key}")
        obj[key] = value
    return obj


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


def _parse_block(raw: Dict[str, Any], block: type, prefix: str) -> Any:
    """Build dataclass ``block`` from JSON object ``raw``; ``prefix`` starts its keys' paths."""
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(block)}
    for key in raw:
        if key not in fields:
            raise ConfigError(f"unknown key: {prefix}{key}")
    values: Dict[str, Any] = {}
    for key, field in fields.items():
        if key not in raw:
            if key == "model":
                raise ConfigError("model is required ('serverfi' or 'retention')")
            continue
        value, path = raw[key], prefix + key
        if field.default_factory is not dataclasses.MISSING:
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be an object")
            value = _parse_block(value, field.default_factory, path + ".")
        elif key != "model":
            value = _coerce(value, type(field.default), path)
        values[field.name] = value
    try:
        return block(**values)
    except ValueError as exc:
        # the spec checks itself when it is built
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON document into a validated :class:`ExperimentSpec`."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return _parse_block(raw, ExperimentSpec, "")
