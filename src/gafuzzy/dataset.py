"""Tabular dataset loading, validation, cost accounting and splitting.

A Schema describes the feature columns and the label column of a CSV file,
a Dataset holds the validated numeric table, and a CostTable prices each
feature. Every file a user writes (data, records, schema, costs, a config,
expert rules) is decoded here, and its errors named: see reading().
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

from .errors import (
    ArityMismatch,
    ClassTooSmall,
    ConfigError,
    DuplicateFeature,
    EmptyMask,
    GafuzzyError,
    LengthMismatch,
    MalformedRow,
    MissingFeature,
    NegativeCost,
    UnknownFeature,
    UnknownLabel,
    WrongColumnCount,
)

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
        if self.label_index in indices:
            raise ConfigError("label column collides with a feature column")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature name in schema")
        if self.positive_label == self.negative_label:
            raise ConfigError("positive and negative label values must differ")

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
            raise LengthMismatch("records and labels disagree on N")
        if not np.all(np.isfinite(records)):
            raise ConfigError("records contain NaN or infinite values")
        if not np.all((labels == 0) | (labels == 1)):
            raise ConfigError("labels must be 0 or 1")
        if records.shape[0] < 2:
            raise ConfigError("need at least 2 records")
        if len(np.unique(labels)) < 2:
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
                raise NegativeCost(name, cost)

    @property
    def total_cost(self) -> float:
        return sum(cost for _, cost in self.entries)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def cost_of(self, name: str) -> float:
        for n, c in self.entries:
            if n == name:
                return c
        raise UnknownFeature(name)


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
    and INI or CSV syntax errors become a ConfigError naming the file, and a
    GafuzzyError gets the path before its message, keeping its attributes."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except (configparser.Error, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except GafuzzyError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """The lines of a user file, decoded as UTF-8, for reading(path)."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        yield from fh


def _read_ini(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(strict=True, interpolation=None)
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
    # numeric labels may be written with differing formats ("1" vs "1.0")
    try:
        value = float(cell)
        if value == float(schema.positive_label):
            return 1
        if value == float(schema.negative_label):
            return 0
    except ValueError:
        pass
    raise UnknownLabel(row, cell)


def load_csv(path: str | Path, schema: Schema) -> Dataset:
    """Load and validate a CSV file against a schema.

    The first row is treated as a header when it is not a valid data row
    (some feature cell fails to parse as a number, or the label cell is not
    one of the declared label values). Any later invalid row is an error.
    """
    expected_width = max([f.index for f in schema.features] + [schema.label_index]) + 1
    records: list[list[float]] = []
    labels: list[int] = []
    with reading(path):
        for row_no, cells in csv_rows(path):
            if len(cells) != expected_width:
                raise WrongColumnCount(row_no, expected_width, len(cells))
            try:
                values = [float(cells[f.index]) for f in schema.features]
                label = _parse_label(cells[schema.label_index], schema, row_no)
            except (ValueError, UnknownLabel) as exc:
                if row_no == 1 and not records:
                    continue  # header row
                if isinstance(exc, UnknownLabel):
                    raise
                bad = next(
                    f.name for f in schema.features if not _is_number(cells[f.index])
                )
                raise MalformedRow(
                    row_no, f"non-numeric value in feature column {bad!r}"
                ) from exc
            if not all(np.isfinite(values)):
                raise MalformedRow(row_no, "non-finite feature value")
            records.append(values)
            labels.append(label)
        if not records:
            raise ConfigError("no data rows")
        return Dataset(schema, np.array(records), np.array(labels))


def csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(row number, cells) of each non-blank row of a CSV file, numbered
    among all its rows; read them inside reading(path)."""
    rows = enumerate(csv.reader(read_lines(path, newline="")), start=1)
    return ((row_no, cells) for row_no, cells in rows if any(map(str.strip, cells)))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_records(path: Path, input_names: tuple[str, ...]) -> np.ndarray:
    """Unlabelled records for classification, (N, m).

    With a header, columns are matched by name (any order, extras allowed);
    without one, the column count must equal the model's input count.
    NaN and infinite values are rejected with their row number, counting
    the file's rows, blank ones too, as load_csv does. The whole file is
    checked before anything is classified, and the result is one float64
    array, 8 bytes a value. A plain numeric file is parsed in one np.loadtxt
    pass; any other goes through the row loop, which gives the same array
    for every file both accept and the row-numbered messages.
    """
    records = _loadtxt_records(path, input_names)
    return _csv_records(path, input_names) if records is None else records


def _loadtxt_records(path: Path, input_names: tuple[str, ...]) -> np.ndarray | None:
    """The records of a plain numeric file, parsed in one np.loadtxt pass,
    or None for the row loop to decide. None comes for a file that is not
    UTF-8 or holds a quote, a blank first line, a header that lacks a model
    input or has no rows under it, a first row of the wrong width, a cell
    np.loadtxt cannot parse (float() takes some, such as 1_000) and a value
    that is not finite."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    first, _, rest = text.partition("\n")
    cells = first.split(",")
    # a quoted cell can hold a comma or a line end, in any column
    if '"' in text or not any(c.strip() for c in cells):
        return None
    usecols = None
    if not all(map(_is_number, cells)):
        names = [c.strip() for c in cells]
        # np.loadtxt warns on a header without rows
        if not rest.strip() or any(n not in names for n in input_names):
            return None
        usecols = [names.index(n) for n in input_names]
    elif len(cells) != len(input_names):
        return None
    del text, rest  # np.loadtxt reads the file again; hold no copy meanwhile
    try:
        values = np.loadtxt(path, delimiter=",", comments=None, quotechar=None,
                            usecols=usecols, skiprows=int(usecols is not None),
                            ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _csv_records(path: Path, input_names: tuple[str, ...]) -> np.ndarray:
    """The row loop of load_records: every file it accepts, and the
    row-numbered message for every file it rejects."""
    width = len(input_names)
    values = array("d")
    columns: list[int] | None = None  # set by the first row
    header = False
    with reading(path):
        for row_no, row in csv_rows(path):
            if columns is None:
                columns = list(range(width))
                if any(not _is_number(c) for c in row):
                    names = [c.strip() for c in row]
                    missing = [n for n in input_names if n not in names]
                    if missing:
                        raise ArityMismatch(f"header lacks model inputs {missing}")
                    columns = [names.index(n) for n in input_names]
                    header = True
                    continue
            if not header and len(row) != width:
                raise ArityMismatch(f"row {row_no}: expected {width} values, "
                                    f"got {len(row)}")
            try:
                parsed = [float(row[c]) for c in columns]
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"row {row_no}: {exc}") from exc
            if not all(map(math.isfinite, parsed)):
                raise ConfigError(f"row {row_no}: non-finite value")
            values.extend(parsed)
        if columns is None:
            raise ConfigError("no records")
        if not values:
            raise ConfigError("no data rows after header")
    return np.frombuffer(values).reshape(-1, width)


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV (header included, lossless floats)."""
    schema = data.schema
    width = max([f.index for f in schema.features] + [schema.label_index]) + 1
    header = [""] * width
    for f in schema.features:
        header[f.index] = f.name
    header[schema.label_index] = schema.label_name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec, lab in zip(data.records, data.labels):
            row = [""] * width
            for f in schema.features:
                row[f.index] = repr(float(rec[f.index]))
            row[schema.label_index] = (
                schema.positive_label if lab == 1 else schema.negative_label
            )
            writer.writerow(row)


def load_costs(path: str | Path, schema: Schema) -> CostTable:
    """Read a [costs] file and check it covers the schema exactly."""
    with reading(path):
        try:
            parser = _read_ini(path)
        except configparser.DuplicateOptionError as exc:
            raise DuplicateFeature(exc.option) from exc
        if "costs" not in parser:
            raise ConfigError("missing [costs] section")
        raw = dict(parser["costs"])
        for name in raw:
            if name not in schema.feature_names:
                raise UnknownFeature(name)
        entries = []
        for feature in schema.features:
            if feature.name not in raw:
                raise MissingFeature(feature.name)
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
        raise LengthMismatch(
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
                raise ClassTooSmall(
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
            raise ClassTooSmall(f"a class has fewer than k={k} members")
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


def project(data: Dataset, mask: Sequence[int]) -> Dataset:
    """Restrict a dataset to the masked features (labels unchanged)."""
    if len(mask) != data.n_features:
        raise LengthMismatch(
            f"mask length {len(mask)} != {data.n_features} features"
        )
    kept = [i for i, bit in enumerate(mask) if bit]
    if not kept:
        raise EmptyMask("cannot project onto an empty feature set")
    old = data.schema
    features = tuple(
        FeatureSpec(old.features[i].name, new_idx, old.features[i].value_range)
        for new_idx, i in enumerate(kept)
    )
    schema = Schema(
        features, old.label_name, len(kept), old.positive_label, old.negative_label
    )
    return Dataset(schema, data.records[:, kept], data.labels)


@dataclass(frozen=True)
class ColumnStats:
    name: str
    min: float
    max: float
    mean: float


def feature_stats(data: Dataset) -> list[ColumnStats]:
    """Exact column-wise min/max/mean for every feature."""
    mins = data.records.min(axis=0)
    maxs = data.records.max(axis=0)
    means = data.records.mean(axis=0)
    return [
        ColumnStats(f.name, float(mins[f.index]), float(maxs[f.index]),
                    float(means[f.index]))
        for f in data.schema.features
    ]


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
            raise UnknownFeature(name)
        col = name_to_idx[name]
        nonzero = ref[:, col][ref[:, col] != 0]
        if nonzero.size == 0:
            continue
        median = float(np.median(nonzero))
        records[records[:, col] == 0, col] = median
    return Dataset(data.schema, records, data.labels)
