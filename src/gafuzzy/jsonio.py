"""The one place where the package writes and reads its JSON files.

Model, result, baseline and report files share one byte layout (sorted
keys, two-space indent, trailing newline) and are read after any UTF-8
byte-order mark. A file that is not JSON (NaN and Infinity included), or
whose content does not build the expected object (a number that a float
cannot hold, such as 1e400, counts), raises a ConfigError naming the file,
which the CLI maps to exit code 2; NaN and infinities are not written.

The run files (result, baseline, report) are written by encode and read by
decode, which follow each dataclass's fields and type hints. A field is
written under its name. decode casts every number and string to its hint
(int, float, str), except that a JSON integer in a float field stays an
integer, so a written file reads back to the same bytes. It builds nested
dataclasses, tuples, lists and `X | None`, ignores a key that no field
names, and rejects a missing key unless the field's default is None. A
field whose metadata is `{"codec": (write, read)}` is written as
write(value) and read as read(payload); one whose metadata is NOT_SAVED
is left out of the file and takes its default on reading.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import types
from pathlib import Path
from typing import Callable, TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError, GafuzzyError

T = TypeVar("T")

NOT_SAVED = {"codec": None}


def encode(obj):
    """The JSON value of a dataclass, tuple or list of them, or a scalar."""
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            codec = f.metadata.get("codec", ())
            if codec is not None:
                value = getattr(obj, f.name)
                out[f.name] = codec[0](value) if codec else encode(value)
        return out
    if isinstance(obj, (tuple, list)):
        return [encode(value) for value in obj]
    return obj


def decode(cls: type[T], payload) -> T:
    """The cls that encode wrote as payload, each value cast to its hint."""
    origin, args = get_origin(cls), get_args(cls)
    if origin in (Union, types.UnionType):  # X | None
        inner, = (a for a in args if a is not type(None))
        return None if payload is None else decode(inner, payload)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(decode(args[0], value) for value in payload)
        return tuple(decode(a, value) for a, value in zip(args, payload, strict=True))
    if origin is list:
        return [decode(args[0], value) for value in payload]
    if not dataclasses.is_dataclass(cls):
        return payload if cls is float and type(payload) is int else cls(payload)
    hints, values = get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        codec = f.metadata.get("codec", ())
        if codec is None or (f.name not in payload and f.default is None):
            continue
        if f.name not in payload:
            raise ConfigError(f"missing key {f.name!r}")
        value = payload[f.name]
        values[f.name] = codec[1](value) if codec else decode(hints[f.name], value)
    return cls(**values)


def write_json(payload, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _fits(text: str, parse: Callable[[str], float | int] = float):
    """parse(text) of a JSON number that a float can hold, else an error."""
    if not math.isfinite(float(text)):
        raise OverflowError(f"number {reprlib.repr(text)} does not fit in a float")
    return parse(text)


def read_json(path: str | Path, from_dict: Callable[[dict], T], what: str) -> T:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh, parse_constant=_reject_constant, parse_float=_fits,
                                parse_int=lambda text: _fits(text, int))
        except ValueError as exc:  # bad JSON, NaN/Infinity or bad UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        except OverflowError as exc:
            raise ConfigError(f"{path}: malformed {what} file: {exc}") from exc
    try:
        return from_dict(payload)
    except (GafuzzyError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {what} file: {exc}") from exc
