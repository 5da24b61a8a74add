"""Shared helpers: the config codec and seed derivation."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import reprlib
import types
import typing

import numpy as np


def config_from_dict(cls, doc, what: str = "config", prefix: str = ""):
    """Build the config dataclass cls from a parsed JSON object.

    Keys and value types are checked at every level against the field
    annotations: nested dataclasses recurse, dict[str, X] maps its values,
    tuple[X, ...] and tuple[X, Y] take JSON lists, np.ndarray takes a list
    of numbers as a float64 array, X | Y takes either, and float fields
    accept integers. A field's JSON key is its name, or the "key" in its
    metadata (field(metadata={"key": "id"})). Missing keys take the field
    defaults; a field without a default must be present. An unknown,
    missing or ill-typed key raises ValueError naming the dotted key
    (prefix + key); what names the document in the message.
    """
    if not isinstance(doc, dict):
        where = f"{what} key {prefix[:-1]!r}" if prefix else what
        raise ValueError(f"{where}: expected an object, got {reprlib.repr(doc)}")
    schema = _schema(cls)
    unknown = sorted(prefix + key for key in doc if key not in schema)
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    for key, (f, _) in schema.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and key not in doc:
            raise ValueError(f"{what} key {prefix + key!r}: missing")
    return cls(**{schema[key][0].name: decode_value(value, schema[key][1], what, prefix + key)
                  for key, value in doc.items()})


@functools.cache
def _schema(cls) -> dict:
    """JSON key -> (field, type hint) for the dataclass cls, in field order;
    typing.get_type_hints is too slow to call per document."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name): (f, hints[f.name]) for f in dataclasses.fields(cls)}


def decode_value(value, hint, what: str, key: str):
    """A JSON value checked and converted against the type hint, as
    config_from_dict does for each field; key names it in errors."""
    if type(value) is hint:  # exactly the hinted str, int, bool, float or None
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            return config_from_dict(hint, value, what, key + ".")
    elif origin is types.UnionType:
        for arm in args:
            try:
                return decode_value(value, arm, what, key)
            except ValueError:
                pass
    elif origin is dict and isinstance(value, dict):
        return {k: decode_value(v, args[1], what, f"{key}.{k}") for k, v in value.items()}
    elif origin is tuple and isinstance(value, (list, tuple)):
        arms = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(arms) == len(value):
            return tuple(decode_value(v, arm, what, key) for v, arm in zip(value, arms))
    elif hint is np.ndarray:
        if isinstance(value, list):
            return np.array([decode_value(v, float, what, key) for v in value], dtype=np.float64)
    elif hint is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} key {key!r}: {reprlib.repr(value)} is not a finite "
                             "float64") from None
    raise ValueError(f"{what} key {key!r}: expected {_kind(hint)}, got {reprlib.repr(value)}")


_JSON_KINDS = {tuple: "a list", np.ndarray: "a list of numbers", float: "a number",
               int: "an integer", bool: "true or false", str: "a string", type(None): "null"}


def _kind(hint) -> str:
    if typing.get_origin(hint) is types.UnionType:
        return " or ".join(map(_kind, typing.get_args(hint)))
    return _JSON_KINDS.get(typing.get_origin(hint) or hint, "an object")


def config_to_dict(obj) -> dict:
    """The JSON object of a config dataclass, keys in field order (tuples
    stay tuples, which json writes as lists; arrays become lists), so that
    config_from_dict(type(obj), config_to_dict(obj)) == obj."""
    return {key: _encode(getattr(obj, f.name)) for key, (f, _) in _schema(type(obj)).items()}


def _encode(value):
    if dataclasses.is_dataclass(value):
        return config_to_dict(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def derive_seed(base: int, *labels: str) -> int:
    """Mix a base seed with stage labels into a fresh 63-bit seed."""
    text = "|".join([str(int(base)), *labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
