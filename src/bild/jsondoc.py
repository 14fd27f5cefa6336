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

from .errors import FieldError, InvalidInputError

_NAMES = {
    int: "integer",
    float: "number",
    bool: "boolean",
    str: "string",
    dict: "object",
    list: "array",
    types.NoneType: "null",
}


def _at(where: str, key: str) -> str:
    return f"{where} {key}" if where.endswith(":") else f"{where}.{key}" if where else key


def _error(where: str, message: str) -> InvalidInputError:
    return InvalidInputError(f"{where.rstrip(':')}: {message}" if where else message)


def check(value: Any, kind: Any, where: str) -> Any:
    """``value`` read as ``kind``: ``int`` (not a bool), ``float`` (an integer is widened),
    ``bool``, ``str``, ``dict``, ``list``, ``list[X]``, ``tuple[X, ...]``, a union ``X | Y``
    (read as the arm whose JSON type the value has; ``None`` reads as ``null``), a dataclass."""
    if kind in _NAMES:  # a plain JSON type
        if kind is float and type(value) is int:
            return float(value)
        if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
            return value
        raise _error(where, f"expected {_NAMES[kind]}, got {reprlib.repr(value)}")
    origin = typing.get_origin(kind)
    if origin in (types.UnionType, typing.Union):
        arms = typing.get_args(kind)
        for arm in arms:
            json_type = _json_type(arm)
            if type(value) is json_type or (json_type is float and type(value) is int):
                return check(value, arm, where)
        names = " or ".join(_NAMES[_json_type(arm)] for arm in arms)
        raise _error(where, f"expected {names}, got {reprlib.repr(value)}")
    if origin in (list, tuple):
        item = typing.get_args(kind)[0]
        items = [check(v, item, f"{where}[{i}]") for i, v in enumerate(check(value, list, where))]
        return items if origin is list else tuple(items)
    return read_dataclass(kind, value, where)


@functools.cache
def _json_type(kind: Any) -> type:
    """The type of the JSON value that ``kind`` is read from."""
    origin = typing.get_origin(kind) or kind
    return dict if dataclasses.is_dataclass(origin) else list if origin is tuple else origin


@functools.cache
def _fields(cls: type) -> dict[str, tuple[Any, Any]]:
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls) if f.init}


def read_dataclass(cls: type, doc: Any, where: str) -> Any:
    """``cls`` read field by field from the object ``doc``; absent keys take the field
    defaults, and a key that names no field raises. A ``FieldError`` from ``cls``'s
    checks is named ``<where>.<key>``."""
    doc = check(doc, dict, where)
    fields = _fields(cls)
    for key in doc:
        if key not in fields:
            # not ``_error``, whose strip of a root's ':' would eat a key's own
            raise InvalidInputError(f"{_at(where, key)}: unknown field")
    values = {}
    for name, (kind, default) in fields.items():
        if name in doc:
            values[name] = check(doc[name], kind, _at(where, name))
        elif default is dataclasses.MISSING:
            raise _error(_at(where, name), "required field is missing")
    try:
        return cls(**values)
    except FieldError as e:
        raise InvalidInputError(f"{_at(where, e.key)}: {e.message}") from None
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
