"""Shared helpers: float formatting, JSON emission, the config codec,
seed derivation."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def dumps_17g(obj) -> str:
    """Serialize a plain dict/list/scalar tree to JSON with floats at 17
    significant digits.

    The stdlib encoder hardwires repr() for floats, so the file formats
    here use this small walker instead. Dict insertion order is kept.
    """
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def _emit(obj, parts: list[str], level: int) -> None:
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            parts.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(value, parts, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            parts.append("[]")
            return
        parts.append("[")
        for i, value in enumerate(obj):
            _emit(value, parts, level)
            if i < len(obj) - 1:
                parts.append(", ")
        parts.append("]")
    elif isinstance(obj, bool):  # bool is an int subclass; test it first
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(fmt17(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def config_from_dict(cls, doc, what: str = "config", prefix: str = ""):
    """Build the config dataclass cls from a parsed JSON object.

    Keys and value types are checked at every level against the field
    annotations: nested dataclasses recurse, dict[str, X] maps its values,
    tuple[X, ...] and tuple[X, Y] take JSON lists, X | Y takes either,
    and float fields accept integers. Missing keys take the field
    defaults. An unknown key or a wrong type raises ValueError naming the
    dotted key (prefix + key); what names the document in the message.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected an object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(prefix + key for key in doc if key not in names)
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    return cls(**{key: _decode(value, hints[key], what, prefix + key) for key, value in doc.items()})


def _decode(value, hint, what: str, key: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            return config_from_dict(hint, value, what, key + ".")
    elif origin is types.UnionType:
        for arm in args:
            try:
                return _decode(value, arm, what, key)
            except ValueError:
                pass
    elif origin is dict and isinstance(value, dict):
        return {k: _decode(v, args[1], what, f"{key}.{k}") for k, v in value.items()}
    elif origin is tuple and isinstance(value, (list, tuple)):
        arms = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(arms) == len(value):
            return tuple(_decode(v, arm, what, key) for v, arm in zip(value, arms))
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:
        return value
    raise ValueError(f"{what} key {key!r}: expected {_kind(hint)}, got {value!r}")


_JSON_KINDS = {tuple: "a list", float: "a number", int: "an integer", bool: "true or false",
               str: "a string"}


def _kind(hint) -> str:
    if typing.get_origin(hint) is types.UnionType:
        return " or ".join(map(_kind, typing.get_args(hint)))
    return _JSON_KINDS.get(typing.get_origin(hint) or hint, "an object")


def config_to_dict(obj) -> dict:
    """The JSON object of a config dataclass, fields in declaration order
    (tuples stay tuples; both JSON writers emit them as lists), so that
    config_from_dict(type(obj), config_to_dict(obj)) == obj."""
    return dataclasses.asdict(obj)


def derive_seed(base: int, *labels: str) -> int:
    """Mix a base seed with stage labels into a fresh 63-bit seed."""
    text = "|".join([str(int(base)), *labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
