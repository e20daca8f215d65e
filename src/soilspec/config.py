"""One reading policy for the YAML inputs: cell config, scenario, manifest.

A document is a mapping (an empty one is ``{}``) and a ``null`` value
counts as absent. Values are type-checked, never coerced, and every
failure is a :class:`~soilspec.errors.ConfigError` naming the file.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import sys
from dataclasses import MISSING
from pathlib import Path

import yaml

from .errors import ConfigError

__all__ = ["read_yaml", "reject_unknown_keys", "typed"]

_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a non-empty string", list: "a list", dict: "a mapping",
               dt.date: "a date (YYYY-MM-DD)"}


class _Loader(yaml.SafeLoader):
    """Safe loading, except that a date-shaped scalar that is no real date
    (``2017-13-01``) stays a string, so that :func:`typed` names its key."""

    def construct_yaml_timestamp(self, node):
        try:
            return super().construct_yaml_timestamp(node)
        except ValueError:
            return self.construct_scalar(node)


_Loader.add_constructor("tag:yaml.org,2002:timestamp", _Loader.construct_yaml_timestamp)


def read_yaml(path: str | Path) -> dict:
    """Parse a YAML document that must be a mapping."""
    try:
        doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, (dict, type(None))):
        raise ConfigError(f"{path}: document must be a mapping, got {doc!r}")
    return doc or {}


def typed(doc: dict, key, kind: type, path: str | Path, default=MISSING,
          positive: bool = False):
    """``doc[key]`` checked to be a ``kind``, or ``default`` when absent.

    ``doc`` must be a mapping; ``kind`` is bool, int, float, str, list,
    dict or dt.date. A ``float`` is a finite int or float, returned as
    float; a bool is never a number. A ``dt.date`` is a YAML date or an ISO
    string. A ``str`` is non-empty. ``positive`` also requires ``> 0``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping with '{key}', got {doc!r}")
    value = doc.get(key)
    if value is None:
        if default is MISSING:
            raise ConfigError(f"{path}: missing '{key}'")
        return default
    if kind is dt.date and isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = dt.date.fromisoformat(value)
    if kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind and value != ""
    if not ok or (positive and not value > 0):
        raise ConfigError(f"{path}: '{key}' must be {_KIND_NAMES[kind]}"
                          f"{' > 0' if positive else ''}, got {value!r}")
    return float(value) if kind is float else value


def reject_unknown_keys(doc: dict, known, path: str | Path, what: str) -> None:
    """Raise a ConfigError naming the file and the keys of the mapping ``doc``
    that are not in ``known``; ``what`` names the mapping in the message."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown {what} keys {sorted(unknown, key=repr)}")
