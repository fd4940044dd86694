import itertools

import numpy as np
import pytest

from gafuzzy.dataset import CostTable, mask_cost, stratified_split
from gafuzzy.errors import EmptyMask, LengthMismatch, TooManyFeatures
from gafuzzy.ga import GAParams
from gafuzzy.rule_learning import InductionConfig
from gafuzzy import selector
from gafuzzy.selector import (
    FitnessConfig,
    FitnessEvaluator,
    brute_force_selection,
    derive_seed,
    load_result,
    run_selection,
    save_result,
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


def test_memoized_equals_direct(toy4, toy4_costs):
    fcfg = toy_fcfg()
    evaluator = FitnessEvaluator(toy4, toy4_costs, fcfg, ICFG)
    for mask in all_masks(4):
        first = evaluator(mask)
        assert first == evaluator(mask)  # cache hit, same value
        assert first == fresh_fitness(mask, toy4, toy4_costs, fcfg, ICFG)
    assert evaluator.evaluations == 15


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


def test_worker_invariance(toy4, toy4_costs):
    fcfg = toy_fcfg(master=6)
    params = GAParams(population_size=16, max_generations=15,
                      seed=derive_seed(6, "ga"))
    a = run_selection(toy4, toy4_costs, params, fcfg, ICFG, workers=1)
    b = run_selection(toy4, toy4_costs, params, fcfg, ICFG, workers=3)
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
