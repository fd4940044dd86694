"""The one place where the package writes and reads its JSON files.

Model, result, baseline and report files share one byte layout (sorted
keys, two-space indent, trailing newline) and are read after any UTF-8
byte-order mark. A file that is not JSON (NaN and Infinity included), or
whose content does not build the expected object (a number that a float
cannot hold, such as 1e400, counts), raises a ConfigError naming the file,
which the CLI maps to exit code 2; NaN and infinities are not written.

All four are written by encode and read by decode, which follow each
dataclass's fields and type hints, once per type. A field is written under
its name, or the key its metadata gives as `{"key": ...}`. decode takes an
int field only from a JSON integer, a float field from a number (an
integer stays one), a str field from a string and a tuple or list field
from an array; a boolean is no number. It ignores a key that no field
names and refuses a missing one unless the field's default is None, with a
message led by the keys, such as `inputs: terms: params: expected an
array, got an object`. A field whose metadata is `{"codec": (write,
read)}` is written as write(value) and read as read(payload); one whose
metadata is NOT_SAVED is left out and takes its default on reading. A
dataclass refuses a value out of its range with check_range, so decode
refuses it too.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import types
from functools import cache
from pathlib import Path
from typing import Callable, TypeVar, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError

T = TypeVar("T")

NOT_SAVED = {"codec": None}
_SCALARS = {int: ("an integer", (int,)), float: ("a number", (float, int)),
            str: ("a string", (str,))}  # what a hint's value must be: JSON types
_KINDS = {dict: "an object", list: "an array", tuple: "an array",
          bool: "a boolean", type(None): "null"}


def _same(value):
    return value


def encode(obj):
    """The JSON value of a dataclass; json writes its tuples as arrays."""
    return _codec(type(obj))[0](obj)


def decode(cls: type[T], payload) -> T:
    """The cls that encode wrote as payload, each value of its hint's type."""
    return _codec(cls)[1](payload)


def _refused(wanted: str, value) -> ConfigError:
    got = _KINDS.get(type(value)) or reprlib.repr(value)
    return ConfigError(f"expected {wanted}, got {got}")


@cache
def _codec(hint) -> tuple[Callable, Callable]:
    """(write, read) of a type hint, as a field's codec metadata gives them:
    write turns a value into its JSON value, and read turns a JSON value back,
    refusing one of another JSON type."""
    origin, args = get_origin(hint), get_args(hint)
    if dataclasses.is_dataclass(hint):
        hints = get_type_hints(hint)
        plan = [(f.name, f.metadata.get("key", f.name),
                 *(f.metadata.get("codec") or _codec(hints[f.name])), f.default is not None)
                for f in dataclasses.fields(hint) if f.metadata.get("codec", ()) is not None]

        def read_dataclass(payload):
            if type(payload) is not dict:
                raise _refused("an object", payload)
            values = {}
            for name, key, _, read, required in plan:
                if key in payload:
                    try:
                        values[name] = read(payload[key])
                    except (ConfigError, TypeError, ValueError) as exc:
                        exc.args = (f"{key}: {exc}",)
                        raise
                elif required:
                    raise ConfigError(f"missing key {key!r}")
            return hint(**values)
        return (lambda obj: {key: write(getattr(obj, name)) for name, key, write, _, _ in plan},
                read_dataclass)
    if origin in (Union, types.UnionType):  # X | None
        write, read = _codec(next(a for a in args if a is not type(None)))
        return ((lambda value: None if value is None else write(value)),
                lambda payload: None if payload is None else read(payload))
    if origin in (list, tuple):
        item, = {a for a in args if a is not Ellipsis}  # an array holds one type
        write, read = _codec(item)
        size = None if origin is list or args[-1] is Ellipsis else len(args)

        def read_array(payload):
            if type(payload) is not list and type(payload) is not tuple:
                raise _refused("an array", payload)
            if size is not None and len(payload) != size:
                raise ConfigError(f"expected an array of {size}, got {len(payload)}")
            return origin(map(read, payload))
        # an array of values that are their own JSON values stays as it is
        return (_same if write is _same else lambda values: [write(v) for v in values],
                read_array)
    wanted, kinds = _SCALARS[hint]

    def read_scalar(value):
        if type(value) not in kinds:
            raise _refused(wanted, value)
        return value
    return _same, read_scalar


def check_range(name: str, value, low, high=math.inf) -> None:
    """Refuse a value outside [low, high] with a ConfigError naming it."""
    if not low <= value <= high:
        bound = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be {bound}, got {value!r}")


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
    except (ConfigError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {what} file: {exc}") from exc
