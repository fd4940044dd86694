"""The one place where the package writes and reads its JSON files.

Model, result, baseline and report files share one byte layout (sorted
keys, two-space indent, trailing newline) and are read after any UTF-8
byte-order mark. A file that is not JSON (NaN and Infinity included), or
whose content does not build the expected object, raises a ConfigError
naming the file, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar

from .errors import ConfigError, GafuzzyError

T = TypeVar("T")


def write_json(payload, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: str | Path, from_dict: Callable[[dict], T], what: str) -> T:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # bad JSON, NaN/Infinity or bad UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return from_dict(payload)
    except (GafuzzyError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {what} file: {exc}") from exc
