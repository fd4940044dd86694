import itertools

import numpy as np
import pytest

from gafuzzy.dataset import CostTable, SplitPlan, mask_cost, stratified_split
from gafuzzy.errors import EmptyMask, LengthMismatch, TooManyFeatures
from gafuzzy.fuzzy import CLOSE, CompiledFIS, class_output_variable
from gafuzzy.ga import GAParams
from gafuzzy.rule_learning import InductionConfig, induce_rule_matrix
from gafuzzy import selector
from gafuzzy.selector import (
    CompiledFolds,
    FitnessConfig,
    FitnessEvaluator,
    brute_force_selection,
    build_input_variables,
    derive_seed,
    holdout_evaluation,
    load_result,
    run_selection,
    save_result,
    train_final_classifier,
)

import oracle


def toy_fcfg(master=5, cost_weight=0.3):
    return FitnessConfig.from_master_seed(master, cost_weight=cost_weight, folds=5)


ICFG = InductionConfig()


def all_masks(length):
    return [m for m in itertools.product((0, 1), repeat=length) if any(m)]


def fresh_fitness(mask, data, costs, fcfg, icfg):
    """One mask scored by a fresh evaluator, so no cached value is reused."""
    return FitnessEvaluator(data, costs, fcfg, icfg)(mask)


# --- fitness -------------------------------------------------------------------

def test_lambda_zero_equals_cv_accuracy(toy4, toy4_costs):
    fcfg = toy_fcfg(cost_weight=0.0)
    full = (1, 1, 1, 1)
    value = fresh_fitness(full, toy4, toy4_costs, fcfg, ICFG)
    folds = stratified_split(toy4, fcfg.evaluation)
    expected = oracle.fitness(full, toy4, toy4_costs, folds, cost_weight=0.0)
    assert value == pytest.approx(expected, abs=1e-12)


def test_lambda_one_full_mask_shifts_by_one(toy4, toy4_costs):
    full = (1, 1, 1, 1)
    base = fresh_fitness(full, toy4, toy4_costs, toy_fcfg(cost_weight=0.0), ICFG)
    shifted = fresh_fitness(full, toy4, toy4_costs, toy_fcfg(cost_weight=1.0), ICFG)
    assert shifted == base - 1.0


def test_fitness_validation(toy4, toy4_costs):
    fcfg = toy_fcfg()
    with pytest.raises(EmptyMask):
        fresh_fitness((0, 0, 0, 0), toy4, toy4_costs, fcfg, ICFG)
    with pytest.raises(LengthMismatch):
        fresh_fitness((1, 0), toy4, toy4_costs, fcfg, ICFG)


def test_fitness_matches_independent_oracle(toy4, toy4_costs):
    fcfg = toy_fcfg()
    folds = stratified_split(toy4, fcfg.evaluation)
    for mask in all_masks(4):
        ours = fresh_fitness(mask, toy4, toy4_costs, fcfg, ICFG)
        theirs = oracle.fitness(mask, toy4, toy4_costs, folds,
                                cost_weight=fcfg.cost_weight)
        assert ours == pytest.approx(theirs, abs=1e-12), mask


def test_fitness_matches_oracle_at_non_default_threshold(toy4, toy4_costs):
    # the fitness path must decide with the configured threshold, not 0.5
    fcfg = FitnessConfig.from_master_seed(5, decision_threshold=0.35)
    evaluator = FitnessEvaluator(toy4, toy4_costs, fcfg, ICFG)
    folds = stratified_split(toy4, fcfg.evaluation)
    moved = 0
    for mask in all_masks(4):
        theirs = oracle.fitness(mask, toy4, toy4_costs, folds,
                                cost_weight=fcfg.cost_weight, threshold=0.35)
        assert evaluator(mask) == pytest.approx(theirs, abs=1e-12), mask
        at_half = oracle.fitness(mask, toy4, toy4_costs, folds,
                                 cost_weight=fcfg.cost_weight)
        moved += abs(theirs - at_half) > 1e-12
    assert moved > 0  # the threshold changes some fitness values


def test_memoized_equals_direct(toy4, toy4_costs):
    fcfg = toy_fcfg()
    evaluator = FitnessEvaluator(toy4, toy4_costs, fcfg, ICFG)
    for mask in all_masks(4):
        first = evaluator(mask)
        assert first == evaluator(mask)  # cache hit, same value
        assert first == fresh_fitness(mask, toy4, toy4_costs, fcfg, ICFG)
    assert evaluator.evaluations == 15


SPLIT_MASKS = [
    (1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 0, 0), (1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1),
]


def plain_fit(data, mask, train_idx, fcfg, icfg=ICFG):
    """A classifier trained on the masked training rows by the plain
    composition of partitions, induction and the engine."""
    kept = [i for i, bit in enumerate(mask) if bit]
    x_train = data.records[train_idx][:, kept]
    names = [data.schema.feature_names[i] for i in kept]
    inputs = build_input_variables(x_train, names, icfg.partitions_per_input)
    ant, weights, classes = induce_rule_matrix(
        x_train, data.labels[train_idx], inputs, icfg
    )
    output = class_output_variable(data.schema.label_name)
    return kept, CompiledFIS(inputs, output, ant, weights, classes,
                             fcfg.resolution, fcfg.decision_threshold)


@pytest.mark.parametrize("master", [1, 2, 3])
def test_compiled_splits_equal_plain_training(master, pima_data, pima_costs):
    # scoring the folds together must not change a single bit of any
    # fitness value, holdout prediction or final model
    fcfg = FitnessConfig.from_master_seed(master)
    evaluator = FitnessEvaluator(pima_data, pima_costs, fcfg, ICFG)
    folds = stratified_split(pima_data, fcfg.evaluation)
    (hold_train, hold_test), = stratified_split(
        pima_data, fcfg.resolved_report_plan()
    )
    for mask in SPLIT_MASKS:
        accs = []
        for train_idx, test_idx in folds:
            kept, engine = plain_fit(pima_data, mask, train_idx, fcfg)
            _, predicted = engine.predict(pima_data.records[test_idx][:, kept])
            accs.append(float(np.mean(predicted == pima_data.labels[test_idx])))
        penalty = (fcfg.cost_weight * mask_cost(mask, pima_costs)
                   / pima_costs.total_cost)
        assert evaluator(mask) == float(np.mean(accs)) - penalty, mask

        kept, engine = plain_fit(pima_data, mask, hold_train, fcfg)
        model, predicted, labels = holdout_evaluation(pima_data, mask, fcfg, ICFG)
        assert model == engine.to_config()
        _, expected = engine.predict(pima_data.records[hold_test][:, kept])
        assert np.array_equal(predicted, expected)
        assert np.array_equal(labels, pima_data.labels[hold_test])
        assert train_final_classifier(
            pima_data, mask, fcfg, ICFG, hold_train
        ) == model


def fold_engines(data, splits, mask, fcfg, icfg=ICFG):
    """One plain engine per fold, with the fold's kept test records and
    labels: the fold-by-fold reference of the batched folds."""
    for train_idx, test_idx in splits:
        kept, engine = plain_fit(data, mask, train_idx, fcfg, icfg)
        yield engine, data.records[test_idx][:, kept], data.labels[test_idx]


@pytest.mark.parametrize("min_weight", [0.0, 0.9])
@pytest.mark.parametrize("master", [1, 2, 3])
def test_batched_fitness_equals_fold_by_fold_reference(master, min_weight,
                                                       pima_data, pima_costs):
    # every mask: the folds scored in one batch give the bits of one engine
    # per fold; at 0.9 some folds keep no rule and fall to the midpoint
    icfg = InductionConfig(min_rule_weight=min_weight)
    fcfg = FitnessConfig.from_master_seed(master)
    evaluator = FitnessEvaluator(pima_data, pima_costs, fcfg, icfg)
    splits = stratified_split(pima_data, fcfg.evaluation)
    ruleless = 0
    for mask in all_masks(pima_data.n_features):
        accs = []
        for engine, x_test, y_test in fold_engines(pima_data, splits, mask,
                                                   fcfg, icfg):
            ruleless += engine.n_rules == 0
            accs.append(float(np.mean(engine.predict(x_test)[1] == y_test)))
        penalty = (fcfg.cost_weight * mask_cost(mask, pima_costs)
                   / pima_costs.total_cost)
        assert evaluator(mask) == float(np.mean(accs)) - penalty, mask
    assert (ruleless > 0) == (min_weight > 0)


def test_fitness_labels_equal_grid_centroid_at_real_ties(pima_data):
    # master seed 1's sweep holds test rows whose class strengths tie, so
    # their centroid sits on the threshold; the closed form must leave
    # those to the grid sum, and every label must be the grid centroid's
    fcfg = FitnessConfig.from_master_seed(1)
    splits = stratified_split(pima_data, fcfg.evaluation)
    folds = CompiledFolds(pima_data, splits, fcfg, ICFG)
    at_threshold = 0
    for mask in all_masks(pima_data.n_features):
        kept = [i for i, bit in enumerate(mask) if bit]
        grid = np.concatenate([
            engine._grid_crisp_values(
                engine._term_levels(engine.strength_matrix(x_test))
            )
            for engine, x_test, _ in fold_engines(pima_data, splits, mask, fcfg)
        ])
        expected = (grid >= fcfg.decision_threshold).astype(np.int64)
        assert np.array_equal(folds.predict(kept, *folds.induce(kept)),
                              expected), mask
        at_threshold += np.sum(np.abs(grid - fcfg.decision_threshold) <= CLOSE)
    assert at_threshold > 0


@pytest.mark.parametrize("folds, partitions", [(130, 3), (5, 128), (5, 140)])
def test_keys_past_int8(folds, partitions, pima_data, pima_costs):
    # fold ids, term indices or fold x term slots past what int8 holds
    fcfg = FitnessConfig(evaluation=SplitPlan.kfold(folds, seed=11))
    icfg = InductionConfig(partitions_per_input=partitions)
    evaluator = FitnessEvaluator(pima_data, pima_costs, fcfg, icfg)
    splits = stratified_split(pima_data, fcfg.evaluation)
    for mask in SPLIT_MASKS[3:6]:
        accs = [float(np.mean(engine.predict(x_test)[1] == y_test))
                for engine, x_test, y_test in fold_engines(pima_data, splits,
                                                           mask, fcfg, icfg)]
        penalty = (fcfg.cost_weight * mask_cost(mask, pima_costs)
                   / pima_costs.total_cost)
        assert evaluator(mask) == float(np.mean(accs)) - penalty, mask


# --- scalarization properties (stubbed accuracy) --------------------------------

def test_fitness_strictly_decreasing_in_cost(toy4, toy4_costs, monkeypatch):
    monkeypatch.setattr(selector, "_cv_accuracy",
                        lambda mask, data, fcfg, icfg, folds: 0.8)
    fcfg = toy_fcfg(cost_weight=0.3)
    chain = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]
    values = [fresh_fitness(m, toy4, toy4_costs, fcfg, ICFG) for m in chain]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_onemax_reduction_with_stub(toy4, toy4_costs, monkeypatch):
    monkeypatch.setattr(
        selector, "_cv_accuracy",
        lambda mask, data, fcfg, icfg, folds: sum(mask) / len(mask),
    )
    fcfg = toy_fcfg(cost_weight=0.0)
    params = GAParams(population_size=20, max_generations=40, seed=3)
    result = run_selection(toy4, toy4_costs, params, fcfg, ICFG)
    assert result.best_mask == (1, 1, 1, 1)


# --- brute force -------------------------------------------------------------------

def test_brute_force_single_feature():
    rng = np.random.default_rng(0)
    labels = np.array([0, 1] * 10)
    records = (labels * 3.0 + rng.normal(0, 0.2, 20)).reshape(-1, 1)
    from gafuzzy.dataset import Dataset
    from conftest import make_schema
    data = Dataset(make_schema(1), records, labels)
    costs = CostTable((("f0", 2.0),))
    mask, fit = brute_force_selection(data, costs, toy_fcfg(), ICFG)
    assert mask == (1,)


def test_brute_force_guard(toy4, toy4_costs):
    class Wide:
        n_features = 17
    with pytest.raises(TooManyFeatures):
        brute_force_selection(Wide(), toy4_costs, toy_fcfg(), ICFG)


def test_brute_force_tie_breaking(toy4, toy4_costs, monkeypatch):
    monkeypatch.setattr(selector, "_cv_accuracy",
                        lambda mask, data, fcfg, icfg, folds: 0.5)
    # constant accuracy: lowest cost wins, then the lexicographically
    # smallest bitstring among the single-bit masks
    mask, fit = brute_force_selection(toy4, toy4_costs, toy_fcfg(), ICFG)
    assert mask == (0, 0, 0, 1)


def test_brute_force_is_optimum(toy4, toy4_costs):
    fcfg = toy_fcfg()
    evaluator = FitnessEvaluator(toy4, toy4_costs, fcfg, ICFG)
    best_mask, best_fit = brute_force_selection(toy4, toy4_costs, fcfg, ICFG,
                                                evaluator=evaluator)
    assert best_fit == max(evaluator(m) for m in all_masks(4))


# --- run_selection -----------------------------------------------------------------

def test_selection_finds_informative_feature(toy4, toy4_costs):
    fcfg = toy_fcfg(master=9)
    params = GAParams(population_size=20, max_generations=30,
                      seed=derive_seed(9, "ga"))
    result = run_selection(toy4, toy4_costs, params, fcfg, ICFG, master_seed=9)
    _, bf_fit = brute_force_selection(toy4, toy4_costs, fcfg, ICFG)
    assert result.best_mask[0] == 1  # the informative feature is kept
    assert result.fitness == bf_fit  # exhaustive optimum reached
    assert result.cost == mask_cost(result.best_mask, toy4_costs)
    assert result.selected_names == tuple(
        f.name for f, b in zip(toy4.schema.features, result.best_mask) if b
    )
    assert result.cost <= toy4_costs.total_cost
    assert 0.0 <= result.accuracy <= 1.0
    assert result.model is not None
    assert result.provenance.master_seed == 9


def test_huge_lambda_selects_single_feature(toy4, toy4_costs):
    fcfg = toy_fcfg(master=4, cost_weight=10.0)
    params = GAParams(population_size=20, max_generations=30,
                      seed=derive_seed(4, "ga"))
    result = run_selection(toy4, toy4_costs, params, fcfg, ICFG)
    assert sum(result.best_mask) == 1


def test_selection_repeatable(toy4, toy4_costs):
    fcfg = toy_fcfg(master=6)
    params = GAParams(population_size=16, max_generations=15,
                      seed=derive_seed(6, "ga"))
    a = run_selection(toy4, toy4_costs, params, fcfg, ICFG)
    b = run_selection(toy4, toy4_costs, params, fcfg, ICFG)
    assert a.best_mask == b.best_mask
    assert a.fitness == b.fitness
    assert a.trace == b.trace
    assert a.accuracy == b.accuracy


# --- seeds and serialization ---------------------------------------------------------

def test_derive_seed_stable():
    # frozen expectations guard cross-run reproducibility of the derivation
    assert derive_seed(42, "ga") == derive_seed(42, "ga")
    assert derive_seed(42, "ga") != derive_seed(42, "cv")
    assert derive_seed(42, "ga") != derive_seed(43, "ga")
    assert 0 <= derive_seed(0, "x") < 2**63


def test_result_roundtrip(tmp_path, toy4, toy4_costs):
    fcfg = toy_fcfg(master=8)
    params = GAParams(population_size=12, max_generations=10,
                      seed=derive_seed(8, "ga"))
    result = run_selection(toy4, toy4_costs, params, fcfg, ICFG, master_seed=8)
    path = tmp_path / "result.json"
    save_result(result, path)
    loaded = load_result(path)
    assert loaded.best_mask == result.best_mask
    assert loaded.selected_names == result.selected_names
    assert loaded.accuracy == result.accuracy
    assert loaded.cost == result.cost
    assert loaded.fitness == result.fitness
    assert loaded.trace == result.trace
    assert loaded.provenance == result.provenance
    # saving the reloaded result reproduces the same bytes
    again = tmp_path / "again.json"
    save_result(loaded, again)
    assert again.read_bytes() == path.read_bytes()
