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

from .dataset import CostTable, Dataset, SplitPlan, mask_cost, stratified_split
from .errors import ConfigError, EmptyMask, LengthMismatch, TooManyFeatures
from .fuzzy import (
    BLOCK_BYTES,
    CompiledFIS,
    FISConfig,
    LinguisticVariable,
    Rule,
    class_output_variable,
    degree_table,
    index_rules,
    max_by_group,
    rule_strengths,
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
from .rule_learning import (
    InductionConfig,
    keep_heaviest,
    proposal_weights,
    rule_proposals,
)

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
    resolution: int = FISConfig.resolution
    decision_threshold: float = FISConfig.decision_threshold
    report_plan: SplitPlan | None = None

    def __post_init__(self):
        if not 0.0 <= self.cost_weight < np.inf:
            raise ConfigError(
                f"cost weight (lambda) must be finite and non-negative, "
                f"got {self.cost_weight}"
            )
        # FISConfig's checks of the settings every model trained here has,
        # made before any search
        FISConfig((), class_output_variable("class"), (), self.resolution,
                  self.decision_threshold)

    @classmethod
    def from_master_seed(cls, master: int, folds: int = 5,
                         **fields) -> "FitnessConfig":
        """The CV plan and reporting holdout of a master seed; fields are
        any other FitnessConfig fields."""
        return cls(
            evaluation=SplitPlan.kfold(folds, seed=derive_seed(master, "cv")),
            report_plan=SplitPlan.holdout(0.8, seed=derive_seed(master, "holdout")),
            **fields,
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


def _kept_columns(data: Dataset, mask: Mask) -> list[int]:
    """The column indices the mask keeps."""
    if len(mask) != data.n_features:
        raise LengthMismatch(
            f"mask length {len(mask)} != {data.n_features} features"
        )
    kept = [i for i, bit in enumerate(mask) if bit]
    if not kept:
        raise EmptyMask("cannot select an empty feature set")
    return kept


class CompiledFolds:
    """The splits of a plan, compiled together for every feature from each
    split's training rows only: the K CV folds of the fitness, or the one
    training split of the final model. None of it depends on the mask, so
    scoring a mask slices columns, groups the proposals of every split by
    one int64 key each, gathers each rule's strengths over its split's test
    rows and labels all test rows in one decision. This is the only place a
    classifier is trained, and the only place one is scored on CV folds."""

    def __init__(self, data: Dataset, splits: list[tuple[np.ndarray, np.ndarray]],
                 fcfg: "FitnessConfig", icfg: InductionConfig):
        names = data.schema.feature_names
        self.n_terms = icfg.partitions_per_input
        self.fcfg, self.icfg = fcfg, icfg
        self.output = class_output_variable(data.schema.label_name)
        # the decision of every split's class levels: an engine of no rules
        self.decider = CompiledFIS([], self.output, np.zeros((0, 0)), [], [],
                                   fcfg.resolution, fcfg.decision_threshold)
        self.sizes = np.array([len(test_idx) for _, test_idx in splits])
        width = int(self.sizes.max())
        # (feature, split x term slot, test row): slot n_terms of every split
        # is the sentinel 1 of an unconstrained input, and the rows past a
        # split's size are zero padding, labelled -1 so that no label matches
        table = np.zeros((data.n_features, len(splits), self.n_terms + 1, width))
        self.y_test = np.full((len(splits), width), -1)
        self.inputs, terms, degrees, split_of = [], [], [], []
        for k, (train_idx, test_idx) in enumerate(splits):
            x_train = data.records[train_idx]
            inputs = build_input_variables(x_train, names, self.n_terms)
            t, d = rule_proposals(x_train, inputs)
            self.inputs.append(inputs)
            terms.append(t)
            degrees.append(d)
            split_of.append(np.full(len(train_idx), k))
            table[:, k, :, : len(test_idx)] = degree_table(inputs,
                                                           data.records[test_idx])
            self.y_test[k, : len(test_idx)] = data.labels[test_idx]
        # training rows of every split, one after another, as (feature, row)
        self.terms = np.concatenate(terms).T.copy()
        self.degrees = np.concatenate(degrees).T.copy()
        self.split_of = np.concatenate(split_of)
        self.y_train = np.concatenate([data.labels[tr] for tr, _ in splits])
        # each training row's (class, split) group, and its table row of
        # each feature, as (row, feature)
        self.group_of = self.y_train * len(splits) + self.split_of
        self.slot_of = np.add.outer(self.split_of,
                                    np.arange(data.n_features) * len(splits))
        self.slot_of *= self.n_terms + 1
        self.slot_of += self.terms.T
        # flat as (feature x split x term slot, test row) for rule_strengths
        self.table = table.reshape(np.prod(table.shape[:3]), width)

    def induce(self, kept: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The rules of every split over the kept features, as (training
        rows, weights), each split's rules in order of their first
        proposer."""
        weights = proposal_weights(self.degrees[kept])
        rows = keep_heaviest([self.split_of, *(self.terms[i] for i in kept)],
                             [len(self.sizes)] + [self.n_terms] * len(kept),
                             weights, self.icfg.min_rule_weight)
        return rows, weights[rows]

    def predict(self, kept: list[int], rows: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
        """Labels of every split's test rows, padding rows included, as
        (split, test row), by rules over the kept features given as from
        induce(). The class levels come from the kernel of every engine,
        with each rule's split folded into its slots."""
        n_splits, width = self.y_test.shape
        group = self.group_of[rows]
        order = np.argsort(group, kind="stable")
        group, weights, rows = group[order], weights[order], rows[order]
        slots = self.slot_of[rows[:, None], kept]
        levels = np.zeros((len(self.output.terms) * n_splits, width))
        # rules in blocks of BLOCK_BYTES, so the gathers of all splits
        # together take no more memory than one split's did
        step = max(1, BLOCK_BYTES // (8 * max(width, 1)))
        for start in range(0, len(group), step):
            block = slice(start, start + step)
            max_by_group(rule_strengths(self.table, slots[block], weights[block]),
                         group[block], levels)
        per_row = levels.reshape(-1, n_splits * width).T  # (split x row, class)
        return self.decider.labels(per_row).reshape(n_splits, width)

    def accuracy(self, kept: list[int]) -> float:
        """Mean over the splits of the test accuracy of each split's
        classifier over the kept features."""
        hits = self.predict(kept, *self.induce(kept)) == self.y_test
        return float(np.mean(hits.sum(axis=1) / self.sizes))

    def model(self, kept: list[int]) -> FISConfig:
        """The classifier of the first split over the kept features."""
        rows, weights = self.induce(kept)
        inputs = tuple(self.inputs[0][i] for i in kept)
        rules = index_rules(inputs, self.output, self.terms[kept][:, rows].T,
                            weights, self.y_train[rows])
        return FISConfig(inputs, self.output, rules, self.fcfg.resolution,
                         self.fcfg.decision_threshold)


class FitnessEvaluator:
    """Fitness of a mask: mean CV accuracy of the classifier trained on the
    masked features, minus cost_weight times the mask's share of the total
    cost. This callable is the package's only fitness path.

    The split depends only on labels and the plan seed, so the folds are
    compiled once and shared by every mask, which scores all of them in one
    batch; values are memoized per mask.
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
        self._folds = CompiledFolds(
            data, stratified_split(data, fcfg.evaluation), fcfg, icfg
        )
        self._cache: dict[Mask, float] = {}
        self.hits = 0  # calls answered from the cache

    @property
    def evaluations(self) -> int:
        """Number of distinct masks scored so far."""
        return len(self._cache)

    def __call__(self, mask: Mask) -> float:
        mask = tuple(int(b) for b in mask)
        hit = self._cache.get(mask)
        if hit is not None:
            self.hits += 1
            return hit
        accuracy = self._folds.accuracy(_kept_columns(self.data, mask))
        penalty = (
            self.fcfg.cost_weight
            * mask_cost(mask, self.costs)
            / self.costs.total_cost
        )
        value = accuracy - penalty
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
    split = CompiledFolds(data, [(train_idx, train_idx[:0])], fcfg, icfg)
    return split.model(_kept_columns(data, mask))


def holdout_evaluation(
    data: Dataset,
    mask: Mask,
    fcfg: FitnessConfig,
    icfg: InductionConfig,
    rules: tuple[Rule, ...] | None = None,
) -> tuple[FISConfig, np.ndarray, np.ndarray]:
    """Train on the reporting split's training side, score the held-out side.

    Given rules, such as an expert rule base, replace the induced ones
    before scoring. Returns (model, predictions, test labels).
    """
    (train_idx, test_idx), = stratified_split(data, fcfg.resolved_report_plan())
    model = train_final_classifier(data, mask, fcfg, icfg, train_idx)
    if rules is not None:
        model = replace(model, rules=rules)
    # scored by the engine classify runs, so the accuracy is the saved model's
    kept = _kept_columns(data, mask)
    _, predicted = CompiledFIS.from_config(model).predict(
        data.records[test_idx][:, kept]
    )
    return model, predicted, data.labels[test_idx]


def run_selection(
    data: Dataset,
    costs: CostTable,
    params: GAParams,
    fcfg: FitnessConfig,
    icfg: InductionConfig,
    on_generation=None,
    master_seed: int | None = None,
) -> SelectionResult:
    """Evolve a feature mask, then retrain and score the final classifier on
    a fresh stratified holdout (seeded independently of the CV folds).
    on_generation(stats, evaluator), when given, sees each generation once
    it is scored, with the evaluator's counters up to date."""
    evaluator = FitnessEvaluator(data, costs, fcfg, icfg)

    def report(stats: GenerationStats) -> None:
        on_generation(stats, evaluator)

    best_mask, best_fit, trace = evolve(
        params, data.n_features, evaluator,
        on_generation=report if on_generation else None,
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
