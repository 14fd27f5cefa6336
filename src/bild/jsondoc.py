"""Typed reading of JSON documents: configs, descriptors, n-gram files, traces.

Nothing is coerced, except that an integer is widened where a number is
declared. A dataclass document holds only its fields; any other key raises.
Errors name the location, e.g. ``policy.alpha_fb``; a document's root may
be written ``"<path>:"`` so its fields read ``c.json: max_len``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import types
import typing
from pathlib import Path
from typing import Any

from .errors import InvalidInputError

_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object", list: "array"}


def _at(where: str, key: str) -> str:
    return f"{where} {key}" if where.endswith(":") else f"{where}.{key}" if where else key


def _error(where: str, message: str) -> InvalidInputError:
    return InvalidInputError(f"{where.rstrip(':')}: {message}" if where else message)


def check(value: Any, kind: Any, where: str) -> Any:
    """``value`` read as ``kind``: ``int`` (not a bool), ``float`` (an integer is widened),
    ``bool``, ``str``, ``dict``, ``list``, ``X | None``, ``list[X]``, ``tuple[X, ...]``, a dataclass."""
    origin = typing.get_origin(kind)
    if origin in (types.UnionType, typing.Union):  # X | None
        return None if value is None else check(value, typing.get_args(kind)[0], where)
    if origin in (list, tuple):
        item = typing.get_args(kind)[0]
        items = [check(v, item, f"{where}[{i}]") for i, v in enumerate(check(value, list, where))]
        return items if origin is list else tuple(items)
    if dataclasses.is_dataclass(kind):
        return read_dataclass(kind, value, where)
    if kind is float and type(value) is int:
        return float(value)
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise _error(where, f"expected {_NAMES[kind]}, got {reprlib.repr(value)}")


def field(doc: dict, key: str, kind: Any, where: str, default: Any = dataclasses.MISSING) -> Any:
    """``doc[key]`` read as ``kind``; ``default`` when absent, required without one."""
    if key in doc:
        return check(doc[key], kind, _at(where, key))
    if default is dataclasses.MISSING:
        raise _error(_at(where, key), "required field is missing")
    return default


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, Any, Any], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in dataclasses.fields(cls) if f.init)


def read_dataclass(cls: type, doc: Any, where: str) -> Any:
    """``cls`` read field by field from the object ``doc``; absent keys take the field
    defaults, and a key that names no field raises."""
    doc = check(doc, dict, where)
    fields = _fields(cls)
    names = {name for name, _, _ in fields}
    for key in doc:
        if key not in names:
            # not ``_error``, whose strip of a root's ':' would eat a key's own
            raise InvalidInputError(f"{_at(where, key)}: unknown field")
    values = {name: field(doc, name, kind, where, default) for name, kind, default in fields}
    try:
        return cls(**values)
    except InvalidInputError as e:
        raise _error(where, str(e)) from None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``; undecodable bytes raise naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InvalidInputError(f"{path}: not UTF-8 text: {e}") from None


def load_json(path: str | Path) -> Any:
    """The JSON document in the file at ``path``; malformed JSON raises naming it."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # bad syntax, over-long integers, deep nesting
        raise InvalidInputError(f"{path}: not valid JSON: {e}") from None
