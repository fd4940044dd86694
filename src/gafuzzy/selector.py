"""Wrapper feature selection: GA fitness = cross-validated accuracy of a
fuzzy classifier trained on the masked features, minus a normalized cost
penalty. Also holds the exhaustive oracle used to sanity-check GA runs on
small feature counts.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (
    CostTable,
    Dataset,
    SplitPlan,
    mask_cost,
    project,
    stratified_split,
)
from .errors import ConfigError, EmptyMask, LengthMismatch, TooManyFeatures
from .fuzzy import (
    CompiledFIS,
    FISConfig,
    LinguisticVariable,
    class_output_variable,
    uniform_partition,
)
from .ga import (
    EvolutionTrace,
    GAParams,
    GenerationStats,
    Mask,
    evolve,
    mask_to_string,
    string_to_mask,
)
from .jsonio import read_json, write_json
from .rule_learning import InductionConfig, induce_rule_matrix, induce_rules

BRUTE_FORCE_LIMIT = 16


def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit seed for a named component of a run."""
    digest = hashlib.sha256(f"{label}:{master}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class FitnessConfig:
    """How a mask is scored: CV plan, cost weight, classifier settings."""

    cost_weight: float = 0.3
    evaluation: SplitPlan = field(
        default_factory=lambda: SplitPlan.kfold(5, seed=0)
    )
    resolution: int = 1001
    decision_threshold: float = 0.5
    report_plan: SplitPlan | None = None

    def __post_init__(self):
        if self.cost_weight < 0:
            raise ConfigError("cost weight must be non-negative")

    @classmethod
    def from_master_seed(
        cls,
        master: int,
        cost_weight: float = 0.3,
        folds: int = 5,
        resolution: int = 1001,
        decision_threshold: float = 0.5,
    ) -> "FitnessConfig":
        return cls(
            cost_weight=cost_weight,
            evaluation=SplitPlan.kfold(folds, seed=derive_seed(master, "cv")),
            resolution=resolution,
            decision_threshold=decision_threshold,
            report_plan=SplitPlan.holdout(0.8, seed=derive_seed(master, "holdout")),
        )

    def resolved_report_plan(self) -> SplitPlan:
        if self.report_plan is not None:
            return self.report_plan
        return SplitPlan.holdout(
            0.8, seed=derive_seed(self.evaluation.seed, "holdout")
        )


@dataclass(frozen=True)
class Provenance:
    ga: GAParams
    fitness: "FitnessConfig"
    induction: InductionConfig
    dataset_fingerprint: str
    n_records: int
    master_seed: int | None = None


@dataclass
class SelectionResult:
    best_mask: Mask
    selected_names: tuple[str, ...]
    accuracy: float
    cost: float
    fitness: float
    trace: EvolutionTrace
    provenance: Provenance
    model: FISConfig | None  # saved to its own file, absent after reload


def build_input_variables(
    train_records: np.ndarray,
    feature_names: Sequence[str],
    partitions: int,
) -> list[LinguisticVariable]:
    """Uniform triangular partitions spanning each column's training range."""
    mins = train_records.min(axis=0)
    maxs = train_records.max(axis=0)
    return [
        uniform_partition(name, float(mins[i]), float(maxs[i]), partitions)
        for i, name in enumerate(feature_names)
    ]


def _fold_accuracy(
    records: np.ndarray,
    labels: np.ndarray,
    names: Sequence[str],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    fcfg: "FitnessConfig",
    icfg: InductionConfig,
    output: LinguisticVariable,
) -> float:
    x_train, y_train = records[train_idx], labels[train_idx]
    x_test, y_test = records[test_idx], labels[test_idx]
    inputs = build_input_variables(x_train, names, icfg.partitions_per_input)
    ant, weights, classes = induce_rule_matrix(x_train, y_train, inputs, icfg)
    engine = CompiledFIS(
        inputs, output, ant, weights, classes,
        fcfg.resolution, fcfg.decision_threshold,
    )
    _, predicted = engine.predict(x_test)
    return float(np.mean(predicted == y_test))


def _cv_accuracy(
    mask: Mask,
    data: Dataset,
    fcfg: "FitnessConfig",
    icfg: InductionConfig,
    folds: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    sub = project(data, mask)
    output = class_output_variable(sub.schema.label_name)
    accs = [
        _fold_accuracy(
            sub.records, sub.labels, sub.schema.feature_names,
            tr, te, fcfg, icfg, output,
        )
        for tr, te in folds
    ]
    return float(np.mean(accs))


class FitnessEvaluator:
    """Fitness of a mask: mean CV accuracy of the classifier trained on the
    masked features, minus cost_weight times the mask's share of the total
    cost. This callable is the package's only fitness path.

    The split depends only on labels and the plan seed, so the folds are
    computed once and shared by every mask; values are memoized per mask.
    """

    def __init__(
        self,
        data: Dataset,
        costs: CostTable,
        fcfg: FitnessConfig,
        icfg: InductionConfig,
    ):
        self.data = data
        self.costs = costs
        self.fcfg = fcfg
        self.icfg = icfg
        self._folds = stratified_split(data, fcfg.evaluation)
        self._cache: dict[Mask, float] = {}
        self.evaluations = 0

    def __call__(self, mask: Mask) -> float:
        mask = tuple(int(b) for b in mask)
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        if len(mask) != self.data.n_features:
            raise LengthMismatch(
                f"mask length {len(mask)} != {self.data.n_features} features"
            )
        if not any(mask):
            raise EmptyMask("fitness of the empty mask is undefined")
        accuracy = _cv_accuracy(mask, self.data, self.fcfg, self.icfg, self._folds)
        penalty = (
            self.fcfg.cost_weight
            * mask_cost(mask, self.costs)
            / self.costs.total_cost
        )
        value = accuracy - penalty
        self.evaluations += 1
        self._cache[mask] = value
        return value


def train_final_classifier(
    data: Dataset,
    mask: Mask,
    fcfg: FitnessConfig,
    icfg: InductionConfig,
    train_idx: np.ndarray,
) -> FISConfig:
    """Fit partitions and rules on the given training rows of the masked data."""
    sub = project(data, mask)
    x_train = sub.records[train_idx]
    y_train = sub.labels[train_idx]
    inputs = build_input_variables(
        x_train, sub.schema.feature_names, icfg.partitions_per_input
    )
    output = class_output_variable(sub.schema.label_name)
    train_view = Dataset(sub.schema, x_train, y_train)
    rules = induce_rules(train_view, inputs, output, icfg)
    return FISConfig(
        tuple(inputs), output, rules, fcfg.resolution, fcfg.decision_threshold
    )


def holdout_evaluation(
    data: Dataset,
    mask: Mask,
    fcfg: FitnessConfig,
    icfg: InductionConfig,
) -> tuple[FISConfig, np.ndarray, np.ndarray]:
    """Train on the reporting split's training side, score the held-out side.

    Returns (model, predictions, test labels).
    """
    plan = fcfg.resolved_report_plan()
    (train_idx, test_idx), = stratified_split(data, plan)
    model = train_final_classifier(data, mask, fcfg, icfg, train_idx)
    sub = project(data, mask)
    engine = CompiledFIS.from_config(model)
    _, predicted = engine.predict(sub.records[test_idx])
    return model, predicted, sub.labels[test_idx]


def run_selection(
    data: Dataset,
    costs: CostTable,
    params: GAParams,
    fcfg: FitnessConfig,
    icfg: InductionConfig,
    workers: int = 1,
    on_generation=None,
    master_seed: int | None = None,
) -> SelectionResult:
    """Evolve a feature mask, then retrain and score the final classifier on
    a fresh stratified holdout (seeded independently of the CV folds)."""
    evaluator = FitnessEvaluator(data, costs, fcfg, icfg)
    best_mask, best_fit, trace = evolve(
        params, data.n_features, evaluator, workers=workers,
        on_generation=on_generation,
    )
    model, predicted, y_test = holdout_evaluation(data, best_mask, fcfg, icfg)
    accuracy = float(np.mean(predicted == y_test))
    names = tuple(
        f.name for f, bit in zip(data.schema.features, best_mask) if bit
    )
    provenance = Provenance(
        params, fcfg, icfg, data.fingerprint(), data.n_records, master_seed
    )
    return SelectionResult(
        best_mask,
        names,
        accuracy,
        mask_cost(best_mask, costs),
        best_fit,
        trace,
        provenance,
        model,
    )


def brute_force_selection(
    data: Dataset,
    costs: CostTable,
    fcfg: FitnessConfig,
    icfg: InductionConfig,
    evaluator: FitnessEvaluator | None = None,
) -> tuple[Mask, float]:
    """Exact argmax of the fitness over every non-empty mask.

    Ties break toward lower cost, then the lexicographically smaller
    bitstring. Only feasible for small feature counts.
    """
    length = data.n_features
    if length > BRUTE_FORCE_LIMIT:
        raise TooManyFeatures(
            f"brute force is capped at {BRUTE_FORCE_LIMIT} features, got {length}"
        )
    if evaluator is None:
        evaluator = FitnessEvaluator(data, costs, fcfg, icfg)
    best_mask: Mask | None = None
    best_fit = -np.inf
    best_cost = np.inf
    for bits in itertools.product((0, 1), repeat=length):
        if not any(bits):
            continue
        value = evaluator(bits)
        cost = mask_cost(bits, costs)
        if value > best_fit or (value == best_fit and cost < best_cost):
            best_mask, best_fit, best_cost = bits, value, cost
    assert best_mask is not None
    return best_mask, float(best_fit)


# --- result file -------------------------------------------------------------


def _split_plan_from_dict(d: dict | None) -> SplitPlan | None:
    # files written before the `stratified` key was dropped still carry it
    if d is None:
        return None
    return SplitPlan(d["kind"], d["param"], int(d["seed"]))


def result_to_dict(result: SelectionResult) -> dict:
    prov = result.provenance
    fcfg = replace(prov.fitness, report_plan=prov.fitness.resolved_report_plan())
    return {
        "best_mask": mask_to_string(result.best_mask),
        "selected_names": list(result.selected_names),
        "accuracy": result.accuracy,
        "cost": result.cost,
        "fitness": result.fitness,
        "trace": [
            {
                "generation": s.generation,
                "best_fitness": s.best_fitness,
                "mean_fitness": s.mean_fitness,
                "best_mask": mask_to_string(s.best_mask),
            }
            for s in result.trace
        ],
        "provenance": asdict(replace(prov, fitness=fcfg)),
    }


def result_from_dict(d: dict) -> SelectionResult:
    # numbers are cast on load so that a corrupted file fails here, with
    # the file named, rather than later in the report; older files carry
    # a `cache` key under provenance.fitness, which is ignored
    prov = d["provenance"]
    ga, fit, ind = prov["ga"], prov["fitness"], prov["induction"]
    ga_params = GAParams(
        population_size=int(ga["population_size"]),
        crossover_prob=float(ga["crossover_prob"]),
        mutation_prob=float(ga["mutation_prob"]),
        max_generations=int(ga["max_generations"]),
        stagnation_window=int(ga["stagnation_window"]),
        elite_count=int(ga["elite_count"]),
        seed=int(ga["seed"]),
    )
    fitness_cfg = FitnessConfig(
        cost_weight=float(fit["cost_weight"]),
        evaluation=_split_plan_from_dict(fit["evaluation"]),
        resolution=int(fit["resolution"]),
        decision_threshold=float(fit["decision_threshold"]),
        report_plan=_split_plan_from_dict(fit["report_plan"]),
    )
    icfg = InductionConfig(
        partitions_per_input=int(ind["partitions_per_input"]),
        min_rule_weight=float(ind["min_rule_weight"]),
    )
    trace = [
        GenerationStats(
            int(t["generation"]),
            float(t["best_fitness"]),
            float(t["mean_fitness"]),
            string_to_mask(t["best_mask"]),
        )
        for t in d["trace"]
    ]
    master = prov.get("master_seed")
    provenance = Provenance(
        ga_params, fitness_cfg, icfg, str(prov["dataset_fingerprint"]),
        int(prov["n_records"]), None if master is None else int(master),
    )
    return SelectionResult(
        string_to_mask(d["best_mask"]),
        tuple(d["selected_names"]),
        float(d["accuracy"]),
        float(d["cost"]),
        float(d["fitness"]),
        trace,
        provenance,
        model=None,  # stored separately
    )


def save_result(result: SelectionResult, path: str | Path) -> None:
    write_json(result_to_dict(result), path)


def load_result(path: str | Path) -> SelectionResult:
    return read_json(path, result_from_dict, "result")
