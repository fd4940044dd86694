"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`); the
numeric tolerances are fixed here and nowhere else. The selection criteria
run the full pipeline for 20 master seeds against the bundled dataset and
compare the GA with the exhaustive 255-mask oracle.
"""

import math
import time

import numpy as np
import pytest

from gafuzzy.cli import _packaged, main
from gafuzzy.dataset import Dataset, stratified_split, SplitPlan
from gafuzzy.fuzzy import (
    CompiledFIS,
    class_output_variable,
    infer,
)
from gafuzzy.ga import GAParams, bit_mutation, evolve, roulette_select
from gafuzzy.rule_learning import InductionConfig
from gafuzzy.selector import (
    FitnessConfig,
    brute_force_selection,
    derive_seed,
    holdout_evaluation,
    run_selection,
    train_final_classifier,
)

import oracle
from conftest import make_schema
from test_fuzzy import two_input_config

MASTER_SEEDS = list(range(1, 21))
ICFG = InductionConfig()


def criterion(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def selection_runs(pima_data, pima_costs):
    """One full GA run + exhaustive oracle + baseline per master seed."""
    records = []
    for master in MASTER_SEEDS:
        fcfg = FitnessConfig.from_master_seed(master)
        params = GAParams(seed=derive_seed(master, "ga"))
        t0 = time.perf_counter()
        result = run_selection(pima_data, pima_costs, params, fcfg, ICFG,
                               master_seed=master)
        ga_elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        _, oracle_fitness = brute_force_selection(pima_data, pima_costs, fcfg, ICFG)
        bf_elapsed = time.perf_counter() - t0
        _, base_pred, base_labels = holdout_evaluation(
            pima_data, (1,) * 8, fcfg, ICFG
        )
        records.append(
            {
                "master": master,
                "result": result,
                "oracle_fitness": oracle_fitness,
                "baseline_accuracy": float(np.mean(base_pred == base_labels)),
                "ga_elapsed": ga_elapsed,
                "bf_elapsed": bf_elapsed,
            }
        )
    return records


def test_oracle_equivalence_selection(selection_runs):
    hits = sum(
        r["result"].fitness >= r["oracle_fitness"] - 0.02 for r in selection_runs
    )
    total_time = sum(r["ga_elapsed"] + r["bf_elapsed"] for r in selection_runs)
    criterion(
        "oracle equivalence (GA within 0.02 of 255-mask optimum, >= 18/20)",
        hits >= 18 and total_time < 600.0,
        f"{hits}/20 within tolerance, {total_time:.0f}s total",
    )


def test_cost_reduction(selection_runs, pima_costs):
    cap = 0.55 * pima_costs.total_cost
    good = sum(
        r["result"].cost <= cap and 1 <= sum(r["result"].best_mask) <= 5
        for r in selection_runs
    )
    costs = sorted(r["result"].cost for r in selection_runs)
    criterion(
        "cost reduction (cost <= 0.55 x total and subset size in [1, 5], >= 16/20)",
        good >= 16,
        f"{good}/20 satisfy both; costs {costs[0]}..{costs[-1]} of "
        f"{pima_costs.total_cost}",
    )


def test_accuracy_band(selection_runs):
    baselines = [r["baseline_accuracy"] for r in selection_runs]
    selected = [r["result"].accuracy for r in selection_runs]
    over_070 = sum(acc >= 0.70 for acc in selected)
    slowest = max(r["ga_elapsed"] for r in selection_runs)
    ok = (
        all(b >= 0.62 for b in baselines)
        and all(s >= b - 0.03 for s, b in zip(selected, baselines))
        and over_070 >= 10
        and slowest < 60.0
    )
    criterion(
        "accuracy band (baseline >= 0.62, selected >= baseline - 0.03, "
        ">= 0.70 in >= 10/20, each run < 1 min)",
        ok,
        f"baseline {min(baselines):.3f}..{max(baselines):.3f}, "
        f"selected {min(selected):.3f}..{max(selected):.3f}, "
        f"{over_070}/20 over 0.70, slowest run {slowest:.1f}s",
    )


def test_fuzzy_engine_golden(selection_runs=None):
    config = two_input_config()
    result = infer(config, [6.0, 30.0])
    num = den = 0.0
    for i in range(config.resolution):
        y = i / (config.resolution - 1)
        mu = 0.6 if y <= 0.4 else (1.0 - y if y <= 0.7 else 0.3)
        num += y * mu
        den += mu
    golden_ok = abs(result.crisp - num / den) <= 1e-9

    rng = np.random.default_rng(99)
    out = class_output_variable()
    engine = CompiledFIS(config)  # the class output, 1001 points
    worst = 0.0
    for _ in range(100):
        s_neg, s_pos = rng.uniform(0, 1, 2)
        levels = np.array([[s_neg, s_pos]])
        coarse = engine.crisp_values(levels)[0]
        fine = oracle.grid_centroids(out, 100_001, levels)[0]
        worst = max(worst, abs(coarse - fine))
    criterion(
        "fuzzy engine golden test (hand computation 1e-9; fine-grid "
        "centroid within 1e-3 on 100 random activations)",
        golden_ok and worst <= 1e-3,
        f"golden diff {abs(result.crisp - num / den):.2e}, "
        f"worst grid error {worst:.2e}",
    )


def test_ga_property_suite():
    problems = []

    # elitism monotonicity + constant size/length + no all-zero masks
    def hash_fitness(mask):
        value = int("".join(str(b) for b in mask), 2)
        return math.sin(value * 12.9898) * 43758.5453 % 1.0

    for seed in range(20):
        seen = []

        def spy(mask):
            seen.append(mask)
            return hash_fitness(mask)

        params = GAParams(seed=seed, max_generations=30)
        _, _, trace = evolve(params, 8, spy)
        best = [t.best_fitness for t in trace]
        if best != sorted(best):
            problems.append(f"seed {seed}: best-so-far decreased")
        if len(seen) % params.population_size:
            problems.append(f"seed {seed}: ragged generation")
        if any(len(m) != 8 or sum(m) < 1 for m in seen):
            problems.append(f"seed {seed}: invalid mask evaluated")

    # seed determinism, bit-identical traces
    a = evolve(GAParams(seed=77, max_generations=25), 8, hash_fitness)
    b = evolve(GAParams(seed=77, max_generations=25), 8, hash_fitness)
    if a != b:
        problems.append("same seed produced different traces")

    # roulette chi-square at alpha = 0.01 over 1e5 draws
    masks = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    chosen = roulette_select(masks, (1.0, 2.0, 3.0), 100_000, np.random.default_rng(55))
    counts = np.array([sum(c == m for c in chosen) for m in masks])
    eps = 1e-9
    weights = np.array([eps, 1 + eps, 2 + eps])
    expected = weights / weights.sum() * 100_000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    if chi2 >= 9.21034:
        problems.append(f"roulette chi-square {chi2:.2f} rejected")

    # mutation flip rate within binomial 99% bounds over 1e5 trials
    rng = np.random.default_rng(77)
    total = 0
    for _ in range(100_000):
        out = bit_mutation((1,) * 8, rng, 0.05)
        total += sum(v != 1 for v in out)
    n, pm = 800_000, 0.05
    sd = math.sqrt(n * pm * (1 - pm))
    if not (n * pm - 2.5758 * sd <= total <= n * pm + 2.5758 * sd):
        problems.append(f"mutation flips {total} outside 99% bounds")

    # OneMax convergence in >= 99/100 seeds
    hits = sum(
        evolve(GAParams(seed=s), 8, lambda m: float(sum(m)))[0] == (1,) * 8
        for s in range(100)
    )
    if hits < 99:
        problems.append(f"OneMax solved only {hits}/100")

    criterion("GA property suite", not problems, "; ".join(problems) or "all held")


def test_rule_induction_criterion(pima_data):
    problems = []

    # toy sweep: unique antecedents, count bound
    rng = np.random.default_rng(500)
    output = class_output_variable()
    for _ in range(20):
        n = int(rng.integers(4, 60))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        records = rng.uniform(0, 1, (n, m))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        names = [f"v{i}" for i in range(m)]
        data = Dataset(make_schema(m, names=names), records, labels)
        rules = train_final_classifier(
            data, (1,) * m, FitnessConfig(),
            InductionConfig(partitions_per_input=k), np.arange(n)).rules
        ants = [r.antecedent for r in rules]
        if len(set(ants)) != len(ants):
            problems.append("duplicate antecedent")
        if len(rules) > min(n, k**m):
            problems.append("rule count exceeded bound")

    # exact match with the independent re-derivation on bundled data
    mask = (0, 1, 0, 0, 0, 1, 0, 1)
    (train_idx, _), = stratified_split(pima_data, SplitPlan.holdout(0.8, seed=17))
    x_train = pima_data.records[train_idx][:, [1, 5, 7]]
    y_train = pima_data.labels[train_idx]
    model = train_final_classifier(pima_data, mask, FitnessConfig(), ICFG,
                                   train_idx)
    inputs, rules = model.inputs, model.rules
    expected = oracle.induce(
        x_train, y_train, [oracle.variable_params(v) for v in inputs]
    )
    match = len(rules) == len(expected)
    if match:
        term_names = [v.term_names for v in inputs]
        for rule, (ant, weight, cls) in zip(rules, expected):
            if (
                rule.weight != weight
                or rule.consequent != output.term_names[cls]
                or rule.antecedent
                != tuple((inputs[i].name, term_names[i][t]) for i, t in enumerate(ant))
            ):
                match = False
                break
    if not match:
        problems.append("independent re-derivation disagreed")

    criterion(
        "rule induction (unique antecedents, count bound, independent "
        "re-derivation matches exactly)",
        not problems,
        "; ".join(problems) or f"{len(rules)} rules re-derived identically",
    )


def test_determinism_end_to_end(tmp_path):
    args = [
        "select",
        "--data", str(_packaged("pima.csv")),
        "--schema", str(_packaged("pima.schema")),
        "--costs", str(_packaged("pima.costs")),
        "--seed", "42",
    ]
    outs = []
    for name, extra in (("one", []), ("two", []), ("w2", ["--workers", "2"])):
        out_dir = tmp_path / name
        assert main([*args, "--out", str(out_dir), *extra]) == 0
        outs.append(
            {
                p.name: p.read_bytes()
                for p in out_dir.iterdir()
                if p.suffix in (".json", ".csv")
            }
        )
    identical = outs[0] == outs[1] == outs[2]
    criterion(
        "end-to-end determinism (byte-identical result files across "
        "invocations and worker counts)",
        identical,
        f"{sorted(outs[0])} compared across 3 runs",
    )
