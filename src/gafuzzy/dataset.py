"""Tabular dataset loading, validation, cost accounting and splitting.

A Schema describes the feature columns and the label column of a CSV file,
a Dataset holds the validated numeric table, and a CostTable prices each
feature. Every file a user writes (data, records, schema, costs, a config,
expert rules) is decoded here, as UTF-8 after any byte-order mark, and its
errors named: see reading(). Training data and the records classify labels
share one row loop, read_rows, and one header rule, is_header.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError

@dataclass(frozen=True)
class FeatureSpec:
    """One feature column: its name, position in the file and declared range.
    Costs live only in the CostTable."""

    name: str
    index: int
    value_range: tuple[float, float] | None = None

    def __post_init__(self):
        lo, hi = self.value_range or (0.0, 0.0)  # no declared range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigError(f"feature {self.name!r}: range needs finite min <= max")


@dataclass(frozen=True)
class Schema:
    features: tuple[FeatureSpec, ...]
    label_name: str
    label_index: int
    positive_label: str = "1"
    negative_label: str = "0"

    def __post_init__(self):
        if len(self.features) < 1:
            raise ConfigError("schema must declare at least one feature")
        indices = [f.index for f in self.features]
        if indices != list(range(len(self.features))):
            raise ConfigError(
                "feature indices must be unique and contiguous from 0, "
                f"in declaration order (got {indices})"
            )
        if self.label_index < 0:
            raise ConfigError(
                f"label index must be at least 0, got {self.label_index}")
        if self.label_index in indices:
            raise ConfigError("label column collides with a feature column")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature name in schema")
        if self.positive_label == self.negative_label:
            raise ConfigError("positive and negative label values must differ")
        value = _number(self.positive_label)
        if value is not None and value == _number(self.negative_label):
            raise ConfigError(f"positive and negative label values {self.positive_label!r} "
                              f"and {self.negative_label!r} are the same number")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)


class Dataset:
    """Immutable numeric table plus binary labels.

    records is an N x L float array with no NaN/inf entries; labels is an
    N-vector over {0, 1}. Both classes must be present (stratified splits
    need members on each side).
    """

    def __init__(self, schema: Schema, records: np.ndarray, labels: np.ndarray):
        records = np.array(records, dtype=float)
        labels = np.array(labels, dtype=np.int64)
        if records.ndim != 2 or records.shape[1] != schema.n_features:
            raise ConfigError(
                f"records must be N x {schema.n_features}, got shape {records.shape}"
            )
        if records.shape[0] != labels.shape[0]:
            raise ConfigError("records and labels disagree on N")
        if not np.all(np.isfinite(records)):
            raise ConfigError("records contain NaN or infinite values")
        if not np.all((labels == 0) | (labels == 1)):
            raise ConfigError("labels must be 0 or 1")
        if records.shape[0] < 2:
            raise ConfigError("need at least 2 records")
        if labels.min() == labels.max():  # np.unique would import numpy.ma
            raise ConfigError("both classes must be present")
        records.setflags(write=False)
        labels.setflags(write=False)
        self.schema = schema
        self.records = records
        self.labels = labels

    @property
    def n_records(self) -> int:
        return self.records.shape[0]

    @property
    def n_features(self) -> int:
        return self.records.shape[1]

    def fingerprint(self) -> str:
        """Stable content hash used to match runs in reports."""
        h = hashlib.sha256()
        h.update(",".join(self.schema.feature_names).encode())
        h.update(
            f"|{self.schema.label_name}|{self.schema.positive_label}"
            f"|{self.schema.negative_label}|".encode()
        )
        h.update(self.records.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self.records, other.records)
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return f"Dataset(N={self.n_records}, L={self.n_features})"


@dataclass(frozen=True)
class CostTable:
    """Per-feature monetary cost, aligned with the schema's feature order."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for name, cost in self.entries:
            if cost < 0:
                raise ConfigError(f"feature {name!r} has negative cost {cost}")

    @property
    def total_cost(self) -> float:
        return sum(cost for _, cost in self.entries)


@dataclass(frozen=True)
class SplitPlan:
    """Stratified evaluation plan: a single holdout or k folds."""

    kind: str  # "holdout" | "kfold"
    param: float  # train fraction, or k
    seed: int

    def __post_init__(self):
        if self.kind == "holdout":
            if not 0.0 < self.param < 1.0:
                raise ConfigError("holdout train fraction must lie in (0, 1)")
        elif self.kind == "kfold":
            if int(self.param) != self.param or self.param < 2:
                raise ConfigError("k must be an integer >= 2")
        else:
            raise ConfigError(f"unknown split kind {self.kind!r}")

    @classmethod
    def holdout(cls, train_fraction: float, seed: int) -> "SplitPlan":
        return cls("holdout", float(train_fraction), seed)

    @classmethod
    def kfold(cls, k: int, seed: int) -> "SplitPlan":
        return cls("kfold", int(k), seed)


# --- file loading ----------------------------------------------------------


@contextmanager
def reading(path: str | Path) -> Iterator[None]:
    """The one boundary for errors about a user file: text that is not UTF-8
    becomes a ConfigError naming the file, and an INI or CSV syntax error or
    a ConfigError becomes a ConfigError with the path before its message."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except (configparser.Error, csv.Error, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """The lines of a user file, decoded as UTF-8 after any byte-order
    mark, for reading(path)."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        yield from fh


def _read_ini(path: str | Path, exact_keys: bool = False) -> configparser.ConfigParser:
    """An INI file whose keys are lowercased, or kept as written when
    exact_keys is set; section names always keep their case."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    if exact_keys:
        parser.optionxform = str
    parser.read_file(read_lines(path), source=str(path))
    return parser


def load_schema(path: str | Path) -> Schema:
    """Read a schema file: a [label] section plus one section per feature."""
    with reading(path):
        parser = _read_ini(path)
        if "label" not in parser:
            raise ConfigError("missing [label] section")
        lab = parser["label"]
        try:
            label_name = lab["name"]
            label_index = int(lab["index"])
        except (KeyError, ValueError) as exc:
            raise ConfigError("[label] needs 'name' and integer 'index'") from exc

        features = []
        for section in parser.sections():
            if section == "label":
                continue
            sec = parser[section]
            try:
                index = int(sec["index"])
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"[{section}] needs integer 'index'") from exc
            value_range = None
            if "min" in sec or "max" in sec:
                try:
                    value_range = (float(sec["min"]), float(sec["max"]))
                except (KeyError, ValueError) as exc:
                    raise ConfigError(
                        f"[{section}] must declare both min and max") from exc
            try:
                features.append(FeatureSpec(section, index, value_range))
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
        return Schema(tuple(sorted(features, key=lambda f: f.index)), label_name,
                      label_index, lab.get("positive", "1"), lab.get("negative", "0"))


def _parse_label(cell: str, schema: Schema, row: int) -> int:
    cell = cell.strip()
    if cell == schema.positive_label:
        return 1
    if cell == schema.negative_label:
        return 0
    # numeric labels may be written with differing formats ("1" vs "1.0"),
    # and each label that is a number is compared as one
    value = _number(cell)
    if value is not None:
        for label, target in ((schema.positive_label, 1), (schema.negative_label, 0)):
            if _number(label) == value:
                return target
    raise ConfigError(f"row {row}: unknown label {cell!r}")


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Load and validate a CSV file against a schema: read_rows of the
    feature columns, and each label cell one of the declared values."""
    with reading(path):
        values, cells = read_rows(path, schema.feature_names,
                                  [f.index for f in schema.features],
                                  (schema.label_index, schema.label_name))
        labels = [_parse_label(cell, schema, row) for row, cell in cells]
        return Dataset(schema, values, np.array(labels))


def csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each non-blank row of a CSV file, numbered
    among all its rows; read them inside reading(path)."""
    rows = enumerate(csv.reader(read_lines(path, newline="")), start=1)
    return ((row_no, cells) for row_no, cells in rows if any(map(str.strip, cells)))


def _number(cell: str) -> float | None:
    """The cell as a float, else None."""
    try:
        return float(cell)
    except ValueError:
        return None


def is_header(cells: Iterable[str]) -> bool:
    """The header rule of every CSV file: its first non-blank row is a
    header when one of the cells that would be read as a number is not."""
    return any(_number(cell) is None for cell in cells)


def read_rows(path: str | Path, names: Sequence[str],
              columns: Sequence[int] | None = None,
              label: tuple[int, str] | None = None,
              ) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The finite values of the named columns of a CSV file, (N, m), and
    the (row number, cell) of each row's label column; read them inside
    reading(path). Training data gives the columns and the label's (column,
    name): each row holds exactly the cells up to the last of them, and a
    header names each of them so. Records give neither: a header matches
    the names to columns and sets every row's width; without one, a row
    holds the names' values in order. Errors count blank rows too."""
    values, labels = array("d"), []
    width = None if columns is None else max(*columns, label[0]) + 1
    for nth, (row_no, cells) in enumerate(csv_rows(path)):
        if columns is None and is_header(cells):  # records: columns by name
            found = [c.strip() for c in cells]
            missing = [n for n in names if n not in found]
            if missing:
                raise ConfigError(f"header lacks model inputs {missing}")
            twice = [n for n in names if found.count(n) > 1]
            if twice:
                raise ConfigError(f"header names model inputs {twice} more than once")
            columns, width = [found.index(n) for n in names], len(cells)
            continue
        if columns is None:
            columns, width = range(len(names)), len(names)
        if len(cells) != width:
            raise ConfigError(f"row {row_no}: expected {width} columns, got {len(cells)}")
        read = [cells[c] for c in columns]
        if nth == 0 and is_header(read):  # training data: the schema's names
            for c, name in [*zip(columns, names), label]:
                if cells[c].strip() != name:
                    raise ConfigError(f"row {row_no}: column {c} is headed "
                                      f"{cells[c].strip()!r}, not {name!r}")
            continue
        try:
            parsed = list(map(float, read))
        except ValueError:
            bad = next(n for n, c in zip(names, read) if _number(c) is None)
            raise ConfigError(f"row {row_no}: non-numeric value in feature "
                              f"column {bad!r}") from None
        if not all(map(math.isfinite, parsed)):
            raise ConfigError(f"row {row_no}: non-finite value")
        values.extend(parsed)
        if label is not None:
            labels.append((row_no, cells[label[0]]))
    if not values:
        raise ConfigError("no data rows")
    return np.frombuffer(values).reshape(-1, len(names)), labels


def load_records(path: Path, input_names: tuple[str, ...]) -> np.ndarray:
    """Unlabelled records for classification, (N, m), as read_rows gives
    them: a header matches columns by name (any order, extras allowed).
    The whole file is checked before anything is classified. A plain
    numeric file is parsed in one np.loadtxt pass, to the same array."""
    records = _loadtxt_records(path, input_names)
    if records is None:
        with reading(path):
            records, _ = read_rows(path, input_names)
    return records


def _loadtxt_records(path: Path, input_names: tuple[str, ...]) -> np.ndarray | None:
    """The records of a plain numeric file, parsed in one np.loadtxt pass,
    or None for read_rows to decide. None comes for a file that is not
    UTF-8 or holds a quote, a blank first line, a header that lacks a model
    input, names one twice or has no rows under it, rows of the wrong width,
    a cell np.loadtxt cannot parse (float() takes some, such as 1_000) and a
    value that is not finite."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    first, _, rest = text.partition("\n")
    cells = first.split(",")
    # a quoted cell can hold a comma or a line end, in any column
    if '"' in text or not any(c.strip() for c in cells):
        return None
    usecols = None
    if is_header(cells):
        names = [c.strip() for c in cells]
        # np.loadtxt warns on a header without rows
        if not rest.strip() or any(names.count(n) != 1 for n in input_names):
            return None
        usecols = [names.index(n) for n in input_names]
    elif len(cells) != len(input_names):
        return None
    del text, rest  # np.loadtxt reads the file again; hold no copy meanwhile
    try:
        # every column, so that np.loadtxt rejects rows of differing widths
        values = np.loadtxt(path, delimiter=",", comments=None, quotechar=None,
                            skiprows=int(usecols is not None), ndmin=2,
                            encoding="utf-8-sig")
    except ValueError:
        return None
    if values.shape[1] != len(cells):
        return None
    if usecols not in (None, list(range(len(cells)))):
        values = values[:, usecols]
    return values if np.isfinite(values).all() else None


def load_costs(path: str | Path, schema: Schema) -> CostTable:
    """Read a [costs] file and check it covers the schema exactly: its keys
    are the features' names, case included."""
    with reading(path):
        try:
            parser = _read_ini(path, exact_keys=True)
        except configparser.DuplicateOptionError as exc:
            raise ConfigError(f"feature {exc.option!r} listed more than once") from exc
        if "costs" not in parser:
            raise ConfigError("missing [costs] section")
        raw = dict(parser["costs"])
        for name in raw:
            if name not in schema.feature_names:
                raise ConfigError(f"feature {name!r} not declared in the schema")
        entries = []
        for feature in schema.features:
            if feature.name not in raw:
                raise ConfigError(f"feature {feature.name!r} missing from file")
            try:
                cost = float(raw[feature.name])
            except ValueError as exc:
                raise ConfigError(f"cost of {feature.name!r} is not a number") from exc
            if not np.isfinite(cost):
                raise ConfigError(
                    f"cost of {feature.name!r} is {cost}, not a finite number")
            entries.append((feature.name, cost))
        table = CostTable(tuple(entries))
        # the fitness penalty is a mask's share of the total cost
        if not 0.0 < table.total_cost < np.inf:
            raise ConfigError(f"costs sum to {table.total_cost}; the total must be "
                              "positive and finite")
        return table


# --- operations ------------------------------------------------------------


def mask_cost(mask: Sequence[int], costs: CostTable) -> float:
    """Total cost of the features switched on by the mask."""
    if len(mask) != len(costs.entries):
        raise ConfigError(
            f"mask length {len(mask)} != {len(costs.entries)} features"
        )
    return sum(cost for bit, (_, cost) in zip(mask, costs.entries) if bit)


def stratified_split(
    data: Dataset, plan: SplitPlan
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified index split.

    Holdout returns one (train, test) pair partitioning all indices with
    per-class counts within 1 of exact proportionality. K-fold returns k
    pairs whose test folds are disjoint and cover all indices.
    """
    rng = np.random.default_rng(plan.seed)
    by_class = [np.flatnonzero(data.labels == c) for c in (0, 1)]

    if plan.kind == "holdout":
        train_parts, test_parts = [], []
        for idx in by_class:
            if len(idx) < 2:
                raise ConfigError(
                    "holdout needs at least 2 members per class"
                )
            shuffled = rng.permutation(idx)
            n_train = int(round(plan.param * len(idx)))
            n_train = min(max(n_train, 1), len(idx) - 1)
            train_parts.append(shuffled[:n_train])
            test_parts.append(shuffled[n_train:])
        train = np.sort(np.concatenate(train_parts))
        test = np.sort(np.concatenate(test_parts))
        return [(train, test)]

    k = int(plan.param)
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for idx in by_class:
        if len(idx) < k:
            raise ConfigError(f"a class has fewer than k={k} members")
        shuffled = rng.permutation(idx)
        for j in range(k):
            folds[j].append(shuffled[j::k])
    out = []
    all_idx = np.arange(data.n_records)
    for j in range(k):
        test = np.sort(np.concatenate(folds[j]))
        train = np.setdiff1d(all_idx, test, assume_unique=True)
        out.append((train, test))
    return out


def impute_zero_medians(
    data: Dataset,
    columns: Iterable[str],
    reference_indices: np.ndarray | None = None,
) -> Dataset:
    """Replace zero entries in the named columns by the column median.

    Medians are computed over the nonzero entries of the reference rows
    (all rows when reference_indices is None), so a training split can
    supply the statistics applied to the whole table. Columns whose
    reference entries are all zero are left untouched.
    """
    name_to_idx = {f.name: f.index for f in data.schema.features}
    records = np.array(data.records)
    ref = records if reference_indices is None else records[reference_indices]
    for name in columns:
        if name not in name_to_idx:
            raise ConfigError(f"feature {name!r} not declared in the schema")
        col = name_to_idx[name]
        nonzero = np.sort(ref[:, col][ref[:, col] != 0])
        if nonzero.size == 0:
            continue
        # np.median's value; np.median itself would import numpy.ma
        half = nonzero.size // 2
        median = float(nonzero[half] if nonzero.size % 2
                       else (nonzero[half - 1] + nonzero[half]) / 2.0)
        records[records[:, col] == 0, col] = median
    return Dataset(data.schema, records, data.labels)
