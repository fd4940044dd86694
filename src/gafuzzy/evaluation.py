"""Scoring and the with/without-selection comparison report."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .jsonio import check_range, decode, encode, read_json, write_json
from .selector import SelectionResult


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            check_range(name, getattr(self, name), 0)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total


def score(
    predictions: Sequence[int], labels: Sequence[int]
) -> tuple[float, ConfusionMatrix]:
    """Accuracy plus exact confusion counts."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ConfigError("predictions and labels differ in length")
    if predictions.size == 0:
        raise ConfigError("nothing to score")
    matrix = ConfusionMatrix(
        tp=int(np.sum((predictions == 1) & (labels == 1))),
        fp=int(np.sum((predictions == 1) & (labels == 0))),
        tn=int(np.sum((predictions == 0) & (labels == 0))),
        fn=int(np.sum((predictions == 0) & (labels == 1))),
    )
    return matrix.accuracy, matrix


@dataclass(frozen=True)
class BaselineRun:
    """Full-feature classifier scored on the same reporting split."""

    accuracy: float
    confusion: ConfusionMatrix
    feature_count: int
    cost: float
    dataset_fingerprint: str
    report_seed: int

    def __post_init__(self):
        check_range("accuracy", self.accuracy, 0, 1)
        check_range("feature_count", self.feature_count, 1)
        check_range("cost", self.cost, 0)


@dataclass(frozen=True)
class ReportRow:
    condition: str
    original_feature_count: int
    selected_count: int
    accuracy: float
    cost: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ReportRow, ReportRow]
    dataset_fingerprint: str


def build_report(
    baseline: BaselineRun, selected: SelectionResult
) -> ComparisonReport:
    """Two-row comparison: without selection vs with selection."""
    if baseline.dataset_fingerprint != selected.provenance.dataset_fingerprint:
        raise ConfigError(
            "baseline and selection were computed on different datasets"
        )
    if baseline.report_seed != selected.provenance.fitness.report_plan.seed:
        raise ConfigError(
            "baseline and selection used different reporting splits"
        )
    n_original = baseline.feature_count
    if len(selected.best_mask) != n_original:
        raise ConfigError(f"a mask of {len(selected.best_mask)} bits for "
                          f"a baseline of {n_original} features")
    rows = (
        ReportRow("without selection", n_original, n_original,
                  baseline.accuracy, baseline.cost),
        ReportRow("with selection", n_original, sum(selected.best_mask),
                  selected.accuracy, selected.cost),
    )
    return ComparisonReport(rows, baseline.dataset_fingerprint)


def format_report(report: ComparisonReport) -> str:
    """Human-readable table; accuracies as percentages with one decimal."""
    lines = [
        f"{'condition':<20} {'features':>8} {'selected':>8} "
        f"{'accuracy':>9} {'cost':>8}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.condition:<20} {row.original_feature_count:>8} "
            f"{row.selected_count:>8} {100 * row.accuracy:>8.1f}% "
            f"{row.cost:>8.2f}"
        )
    return "\n".join(lines)


# --- files -------------------------------------------------------------------


def save_baseline(baseline: BaselineRun, path: str | Path) -> None:
    write_json(encode(baseline), path)


def load_baseline(path: str | Path) -> BaselineRun:
    return read_json(path, partial(decode, BaselineRun), "baseline")


def save_report(report: ComparisonReport, path: str | Path) -> None:
    write_json(encode(report), path)
