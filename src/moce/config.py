"""Typed settings, and the strict key=value codec that reads and writes them.

A setting is a dataclass field: its annotation is its type, its default its
default, and ``setting`` attaches its rule; ``check_fields`` enforces all
three where a config is built. Run files and checkpoint manifests are flat
``key=value`` text that ``read_values`` types and checks from the same
fields, naming the file, the line and the key of any fault.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing
from dataclasses import MISSING, field

from .errors import ConfigError
from .fileio import parse_numbers, read_lines

_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}
_KIND_CLASSES = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}


def setting(default=MISSING, **rule):
    """A config field with a rule: any of ``low`` (inclusive), ``above`` and
    ``below`` (exclusive) bounds, and ``choices``. No default: required."""
    return field(default=default, metadata=rule)


@functools.cache
def field_types(cls) -> dict[str, type]:
    return typing.get_type_hints(cls)


def _kind(hint) -> tuple[type, bool]:
    """The value type of an annotation, and whether it also allows None."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return (args[0], True) if args else (hint, False)


def _problem(name: str, value, hint, rule) -> str | None:
    kind, optional = _kind(hint)
    if value is None and optional:
        return None
    # bool is an int subclass, so it is told apart explicitly.
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _KIND_CLASSES[kind]):
        return f"{name} must be {_KIND_NAMES[kind]}, got {value!r}"
    if kind is float and not math.isfinite(value):
        return f"{name} must be finite, got {value!r}"
    if "low" in rule and not value >= rule["low"]:
        return f"{name} must be >= {rule['low']}, got {value!r}"
    if "above" in rule and not value > rule["above"]:
        return f"{name} must be > {rule['above']}, got {value!r}"
    if "below" in rule and not value < rule["below"]:
        return f"{name} must be < {rule['below']}, got {value!r}"
    if "choices" in rule and value not in rule["choices"]:
        return f"{name} must be one of {', '.join(rule['choices'])}, got {value!r}"
    return None


def check_fields(cfg) -> None:
    """Raise ConfigError for the first field whose value breaks its type or rule."""
    hints = field_types(type(cfg))
    for f in dataclasses.fields(cfg):
        problem = _problem(f.name, getattr(cfg, f.name), hints[f.name], f.metadata)
        if problem:
            raise ConfigError(problem)


class KeyValueFormat(typing.NamedTuple):
    """One kind of key=value file: the error its malformed text raises, its
    spelling of false and true, whether '#' starts a comment, and whether
    a key left out takes its field's default (else every key is required)."""

    error: type
    false_true: tuple[str, str]
    comments: bool
    defaults: bool


def schema(cls, prefix: str = "") -> dict[str, tuple[dataclasses.Field, type]]:
    """The keys a file may set for ``cls``: field and annotation by key."""
    return {prefix + f.name: (f, field_types(cls)[f.name]) for f in dataclasses.fields(cls)}


def _parse(text: str, hint, fmt: KeyValueFormat, where: str):
    kind, _ = _kind(hint)
    if kind is bool:
        if text not in fmt.false_true:
            raise fmt.error(f"{where}: expected {' or '.join(fmt.false_true)}, got {text!r}")
        return text == fmt.false_true[1]
    if kind is str:
        return text
    try:
        return parse_numbers([text], kind)[0]
    except ValueError:
        raise fmt.error(f"{where}: expected {_KIND_NAMES[kind]}, got {text!r}") from None


def read_values(path, keys: dict, fmt: KeyValueFormat, header: str | None = None) -> dict:
    """Typed, checked values of the key=value file at ``path``, by key.

    ``keys`` is a ``schema``, or several merged. No key may be set twice, and
    a key must be set unless its field has a default that ``fmt`` allows.
    A ``header``, if given, is the first line.
    """
    lines = read_lines(path)
    first = 1
    if header is not None:
        if not lines or lines[0].split() != header.split():
            raise fmt.error(f"{path}:1: expected '{header}' header")
        lines, first = lines[1:], 2
    values = {}
    for lineno, line in enumerate(lines, start=first):
        text = (line.split("#", 1)[0] if fmt.comments else line).strip()
        if not text:
            continue
        if "=" not in text:
            raise fmt.error(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, _, text = (part.strip() for part in text.partition("="))
        if key not in keys:
            raise fmt.error(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise fmt.error(f"{path}:{lineno}: duplicate key '{key}'")
        f, hint = keys[key]
        values[key] = _parse(text, hint, fmt, f"{path}:{lineno}: {key}")
        problem = _problem(key, values[key], hint, f.metadata)
        if problem:
            raise ConfigError(f"{path}:{lineno}: {problem}")
    missing = [key for key, (f, _) in keys.items()
               if key not in values and (f.default is MISSING or not fmt.defaults)]
    if missing:
        raise fmt.error(f"{path}: missing key(s) {', '.join(missing)}")
    return values


def build(cls, values: dict, path):
    """``cls(**values)``, with a failed cross-field rule naming ``path``."""
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def format_lines(cfg, fmt: KeyValueFormat, prefix: str = "") -> list[str]:
    """One ``key=value`` line per field of ``cfg`` that is not None, in field order."""
    values = [(f.name, getattr(cfg, f.name)) for f in dataclasses.fields(cfg)]
    return [f"{prefix}{name}={fmt.false_true[value] if isinstance(value, bool) else value}"
            for name, value in values if value is not None]
