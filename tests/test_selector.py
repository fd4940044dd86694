import hashlib
import itertools
import json

import numpy as np
import pytest

from gafuzzy.dataset import (
    CostTable, Dataset, SplitPlan, mask_cost, stratified_split,
)
from gafuzzy.errors import ConfigError
from gafuzzy.fuzzy import CompiledFIS, class_output_variable
from gafuzzy.ga import GAParams, mask_to_string
from gafuzzy.rule_learning import InductionConfig
from gafuzzy.selector import (
    CompiledFolds,
    FitnessConfig,
    FitnessEvaluator,
    brute_force_selection,
    derive_seed,
    holdout_evaluation,
    load_result,
    run_selection,
    save_result,
)

import oracle
from conftest import class_levels, make_schema


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
    folds = fcfg.cv_splits(toy4)
    expected = oracle.fitness(full, toy4, toy4_costs, folds, cost_weight=0.0)
    assert value == pytest.approx(expected, abs=1e-12)


def test_lambda_one_full_mask_shifts_by_one(toy4, toy4_costs):
    full = (1, 1, 1, 1)
    base = fresh_fitness(full, toy4, toy4_costs, toy_fcfg(cost_weight=0.0), ICFG)
    shifted = fresh_fitness(full, toy4, toy4_costs, toy_fcfg(cost_weight=1.0), ICFG)
    assert shifted == base - 1.0


def test_fitness_validation(toy4, toy4_costs):
    fcfg = toy_fcfg()
    with pytest.raises(ConfigError, match="cannot select an empty feature set"):
        fresh_fitness((0, 0, 0, 0), toy4, toy4_costs, fcfg, ICFG)
    with pytest.raises(ConfigError, match="mask length 2 != 4 features"):
        fresh_fitness((1, 0), toy4, toy4_costs, fcfg, ICFG)


def test_fitness_matches_independent_oracle(toy4, toy4_costs):
    fcfg = toy_fcfg()
    folds = fcfg.cv_splits(toy4)
    for mask in all_masks(4):
        ours = fresh_fitness(mask, toy4, toy4_costs, fcfg, ICFG)
        theirs = oracle.fitness(mask, toy4, toy4_costs, folds,
                                cost_weight=fcfg.cost_weight)
        assert ours == pytest.approx(theirs, abs=1e-12), mask


def test_fitness_matches_oracle_at_non_default_threshold(toy4, toy4_costs):
    # the fitness path must decide with the configured threshold, not 0.5
    fcfg = FitnessConfig.from_master_seed(5, decision_threshold=0.35)
    evaluator = FitnessEvaluator(toy4, toy4_costs, fcfg, ICFG)
    folds = fcfg.cv_splits(toy4)
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


# SHA-256 of the 255 lines `tools/fitness_hex.py --seeds 1` prints
FITNESS_HEX_SEED_1 = "0e178847270b4a10773f9e65d36774a45b7ad2a0d04282a2c61f83402d6279d2"


def test_fitness_bits_of_master_seed_1_are_pinned(pima_data, pima_costs):
    # a change to any bit of any fitness value of master seed 1 fails here
    evaluator = FitnessEvaluator(pima_data, pima_costs,
                                 FitnessConfig.from_master_seed(1), ICFG)
    text = "".join(f"1 {mask_to_string(mask)} {float.hex(evaluator(mask))}\n"
                   for mask in all_masks(pima_data.n_features))
    assert hashlib.sha256(text.encode()).hexdigest() == FITNESS_HEX_SEED_1


SPLIT_MASKS = [
    (1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 0, 0), (1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1),
]


def fold_trainers(data, splits, fcfg, icfg=ICFG):
    """Per split, the trainer train_final_classifier builds on its training
    rows, built once for every mask, and its test rows."""
    return [(CompiledFolds(data, [(train_idx, train_idx[:0])], fcfg, icfg),
             test_idx) for train_idx, test_idx in splits]


def fold_engines(data, trainers, mask):
    """One engine per split, the final model trained on the split's training
    rows as select trains it, with the split's kept test records and labels:
    the split-by-split reference of the batched folds."""
    kept = [i for i, bit in enumerate(mask) if bit]
    for trainer, test_idx in trainers:
        yield (CompiledFIS(trainer.model(kept)),
               data.records[test_idx][:, kept], data.labels[test_idx])


@pytest.mark.parametrize("master", [1, 2, 3])
def test_compiled_splits_equal_plain_training(master, pima_data, pima_costs):
    # scoring the folds together must not change a single bit of any
    # fitness value or holdout prediction
    fcfg = FitnessConfig.from_master_seed(master)
    evaluator = FitnessEvaluator(pima_data, pima_costs, fcfg, ICFG)
    folds = fold_trainers(pima_data, fcfg.cv_splits(pima_data), fcfg)
    holdout = fold_trainers(pima_data, [fcfg.report_split(pima_data)], fcfg)
    for mask in SPLIT_MASKS:
        accs = [float(np.mean(engine.predict(x_test)[1] == y_test))
                for engine, x_test, y_test in fold_engines(pima_data, folds, mask)]
        penalty = (fcfg.cost_weight * mask_cost(mask, pima_costs)
                   / pima_costs.total_cost)
        assert evaluator(mask) == float(np.mean(accs)) - penalty, mask

        (engine, x_test, y_test), = fold_engines(pima_data, holdout, mask)
        model, predicted, labels = holdout_evaluation(pima_data, mask, fcfg, ICFG)
        assert model == engine.config
        assert np.array_equal(predicted, engine.predict(x_test)[1])
        assert np.array_equal(labels, y_test)


@pytest.mark.parametrize("min_weight", [0.0, 0.9])
@pytest.mark.parametrize("master", [1, 2, 3])
def test_batched_fitness_equals_fold_by_fold_reference(master, min_weight,
                                                       pima_data, pima_costs):
    # every mask: the folds scored in one batch give the bits of one engine
    # per fold; at 0.9 some folds keep no rule and fall to the midpoint
    icfg = InductionConfig(min_rule_weight=min_weight)
    fcfg = FitnessConfig.from_master_seed(master)
    evaluator = FitnessEvaluator(pima_data, pima_costs, fcfg, icfg)
    trainers = fold_trainers(pima_data, fcfg.cv_splits(pima_data), fcfg, icfg)
    ruleless = 0
    for mask in all_masks(pima_data.n_features):
        accs = []
        for engine, x_test, y_test in fold_engines(pima_data, trainers, mask):
            ruleless += engine.n_rules == 0
            accs.append(float(np.mean(engine.predict(x_test)[1] == y_test)))
        penalty = (fcfg.cost_weight * mask_cost(mask, pima_costs)
                   / pima_costs.total_cost)
        assert evaluator(mask) == float(np.mean(accs)) - penalty, mask
    assert (ruleless > 0) == (min_weight > 0)


@pytest.mark.parametrize("master", [1, 2, 3])
def test_fold_labels_equal_the_exact_grid_centroid(master, pima_data):
    # every CV test-row label of every mask is the class of the grid
    # centroid in exact arithmetic: the float grid sum where it is far from
    # the threshold, rational arithmetic where it is within oracle.TIE.
    # Master seed 1 holds exact ties and a negative level 1 ulp above the
    # positive one (mask 10111000)
    fcfg = FitnessConfig.from_master_seed(master)
    splits = fcfg.cv_splits(pima_data)
    folds = CompiledFolds(pima_data, splits, fcfg, ICFG)
    trainers = fold_trainers(pima_data, splits, fcfg)
    output = class_output_variable()
    tied = []
    for mask in all_masks(pima_data.n_features):
        kept = [i for i, bit in enumerate(mask) if bit]
        levels = np.concatenate([
            class_levels(engine, x_test)
            for engine, x_test, _ in fold_engines(pima_data, trainers, mask)
        ])
        grid = oracle.grid_centroids(output, fcfg.resolution, levels)
        expected = (grid >= fcfg.decision_threshold).astype(np.int64)
        near = np.abs(grid - fcfg.decision_threshold) <= oracle.TIE
        for row in np.flatnonzero(near & (levels.max(axis=1) > 0)):
            expected[row] = oracle.exact_label(levels[row], fcfg.resolution,
                                               fcfg.decision_threshold)
            tied.append(tuple(levels[row]))
        predicted = folds.predict(kept, *folds.induce(kept))
        assert np.array_equal(predicted[folds.y_test >= 0], expected), mask
    assert any(neg == pos for neg, pos in tied)
    if master == 1:
        assert (0.32000000000000006, 0.32) in tied


def oracle_proposals(folds, data, splits):
    """Per input, each training row's term of highest oracle degree, the
    earlier term on equal degrees, and that degree, as (feature, row)
    arrays, the rows of every split one after another."""
    terms, degrees = [], []
    for inputs, (train_idx, _) in zip(folds.inputs, splits):
        params = [oracle.variable_params(var) for var in inputs]
        for row in data.records[train_idx].tolist():
            row_degrees = [oracle.term_degrees(x, *p) for x, p in zip(row, params)]
            terms.append([d.index(max(d)) for d in row_degrees])
            degrees.append([max(d) for d in row_degrees])
    return np.array(terms).T, np.array(degrees).T


def test_proposals_are_each_rows_strongest_term(pima_data):
    # the proposals read off the degree table are those of the oracle, bit
    # for bit: the CV folds of pima, and rows at 2.5 and 7.5, where low and
    # medium or medium and high both have degree 0.5, which propose the
    # earlier term
    column = [0.0, 2.5, 5.0, 7.5, 10.0, 2.5, 7.5, 1.0]
    toy = Dataset(make_schema(2), np.column_stack([column, column[::-1]]),
                  np.array([0, 1] * 4))
    cases = [(pima_data, stratified_split(pima_data, SplitPlan.kfold(5, seed=3))),
             (toy, [(np.arange(8), np.arange(0))])]
    for data, splits in cases:
        folds = CompiledFolds(data, splits, FitnessConfig(), ICFG)
        terms, degrees = oracle_proposals(folds, data, splits)
        assert folds.terms.dtype == np.uint8
        assert np.array_equal(folds.terms, terms)
        assert np.array_equal(folds.degrees, degrees)
    assert folds.terms.tolist() == [[0, 0, 1, 1, 2, 0, 1, 0],
                                    [0, 1, 0, 2, 1, 1, 0, 0]]
    assert folds.degrees[:, 1].tolist() == [0.5, 0.5]


def test_fold_table_has_no_sentinel_slot(pima_data):
    # induced rules constrain every kept input, so the folds' degree table
    # holds one row per feature, fold and term, and every slot a training
    # row can point at is one of them
    fcfg = FitnessConfig.from_master_seed(1)
    splits = fcfg.cv_splits(pima_data)
    folds = CompiledFolds(pima_data, splits, fcfg, ICFG)
    assert folds.table.shape == (8 * 5 * 3, 154)
    assert folds.slot_of.min() >= 0 and folds.slot_of.max() < 8 * 5 * 3


def test_fitness_decides_class_ties_exactly():
    # rules (low, low) -> 0 and (medium, low) -> 1 at weight 1 are in every
    # fold; a test row at (2.5, 3) fires both at min(0.5, 0.4), a tie the
    # exact centroid sends to the positive class, which is its label, so
    # every fold scores 1
    rows = [(0.0, 0.0, 0), (10.0, 10.0, 0), (5.0, 0.0, 1), (2.5, 3.0, 1)]
    table = np.repeat(np.array(rows), 10, axis=0)
    data = Dataset(make_schema(2), table[:, :2], table[:, 2].astype(np.int64))
    costs = CostTable((("f0", 1.0), ("f1", 1.0)))
    fcfg = toy_fcfg(cost_weight=0.0)
    assert fresh_fitness((1, 1), data, costs, fcfg, ICFG) == 1.0
    trainers = fold_trainers(data, fcfg.cv_splits(data), fcfg)
    for engine, x_test, y_test in fold_engines(data, trainers, (1, 1)):
        tie = x_test[:, 0] == 2.5
        assert np.all(class_levels(engine, x_test[tie]) == 0.4)


@pytest.mark.parametrize("folds, partitions", [(130, 3), (5, 128), (5, 140)])
def test_keys_past_int8(folds, partitions, pima_data, pima_costs):
    # fold ids, term indices or fold x term slots past what int8 holds; on
    # the full mask, 5 folds of 128 or 140 terms and about 3,072 proposals
    # make cell keys past int64, which are re-ranked on the way
    fcfg = FitnessConfig(evaluation=SplitPlan.kfold(folds, seed=11))
    icfg = InductionConfig(partitions_per_input=partitions)
    evaluator = FitnessEvaluator(pima_data, pima_costs, fcfg, icfg)
    splits = fcfg.cv_splits(pima_data)
    if partitions > 3:
        proposals = sum(len(train_idx) for train_idx, _ in splits)
        assert folds * partitions ** 8 * proposals > 2 ** 63
    trainers = fold_trainers(pima_data, splits, fcfg, icfg)
    for mask in SPLIT_MASKS[3:]:
        accs = [float(np.mean(engine.predict(x_test)[1] == y_test))
                for engine, x_test, y_test in fold_engines(pima_data, trainers,
                                                           mask)]
        penalty = (fcfg.cost_weight * mask_cost(mask, pima_costs)
                   / pima_costs.total_cost)
        assert evaluator(mask) == float(np.mean(accs)) - penalty, mask


# --- scalarization properties (stubbed accuracy) --------------------------------

def test_fitness_strictly_decreasing_in_cost(toy4, toy4_costs, monkeypatch):
    monkeypatch.setattr(CompiledFolds, "accuracy", lambda folds, kept: 0.8)
    fcfg = toy_fcfg(cost_weight=0.3)
    chain = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]
    values = [fresh_fitness(m, toy4, toy4_costs, fcfg, ICFG) for m in chain]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_onemax_reduction_with_stub(toy4, toy4_costs, monkeypatch):
    monkeypatch.setattr(CompiledFolds, "accuracy",
                        lambda folds, kept: len(kept) / toy4.n_features)
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
    with pytest.raises(ConfigError, match="brute force is capped at 16 features, got 17"):
        brute_force_selection(Wide(), toy4_costs, toy_fcfg(), ICFG)


def test_brute_force_tie_breaking(toy4, toy4_costs, monkeypatch):
    monkeypatch.setattr(CompiledFolds, "accuracy", lambda folds, kept: 0.5)
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


def test_report_plan_is_filled_at_construction(tmp_path, toy4, toy4_costs):
    # a config without a reporting plan holds the holdout of its CV plan's
    # seed, and so does a result file whose report_plan is null, which
    # saves again as it was first written
    fcfg = FitnessConfig(evaluation=SplitPlan.kfold(5, seed=8))
    assert fcfg.report_plan == SplitPlan.holdout(0.8, derive_seed(8, "holdout"))
    params = GAParams(population_size=12, max_generations=10, seed=3)
    path = tmp_path / "result.json"
    save_result(run_selection(toy4, toy4_costs, params, fcfg, ICFG), path)
    payload = json.loads(path.read_text())
    payload["provenance"]["fitness"]["report_plan"] = None
    null = tmp_path / "null.json"
    null.write_text(json.dumps(payload))
    loaded = load_result(null)
    assert loaded.provenance.fitness.report_plan == fcfg.report_plan
    again = tmp_path / "again.json"
    save_result(loaded, again)
    assert again.read_bytes() == path.read_bytes()


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
