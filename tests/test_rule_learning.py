import itertools

import numpy as np
import pytest

from gafuzzy.dataset import Dataset, stratified_split, SplitPlan
from gafuzzy.errors import ConfigError
from gafuzzy.fuzzy import FISConfig, Rule, class_output_variable, uniform_partition
from gafuzzy.rule_learning import (
    InductionConfig,
    format_rule,
    keep_heaviest,
    load_expert_rules,
    read_expert_rules,
)
from gafuzzy.selector import FitnessConfig, train_final_classifier

import oracle
from conftest import make_schema


def dataset_of(rows, labels, names=("x", "y")):
    rows = np.asarray(rows, float)
    return Dataset(make_schema(rows.shape[1], names=list(names[: rows.shape[1]])),
                   rows, np.asarray(labels))


def induce(data, cfg=InductionConfig(), mask=None, train_idx=None):
    """The model select trains on the training rows (all by default) of the
    masked features (all by default)."""
    mask = (1,) * data.n_features if mask is None else mask
    train_idx = np.arange(data.n_records) if train_idx is None else train_idx
    return train_final_classifier(data, mask, FitnessConfig(), cfg, train_idx)


def oracle_rules(model, records, labels, min_weight=0.0):
    """The rules oracle.induce derives over the model's own partitions,
    named, the lighter than min_weight dropped."""
    variables = [oracle.variable_params(v) for v in model.inputs]
    return tuple(
        Rule(tuple((v.name, v.term_names[t]) for v, t in zip(model.inputs, ant)),
             model.output.term_names[cls], weight)
        for ant, weight, cls in oracle.induce(records, labels, variables)
        if weight >= min_weight
    )


# rows at both ends of [0, 10], so that each input is partitioned as
# uniform_partition(name, 0.0, 10.0, 3): low, medium and high peak at 0, 5
# and 10
ENDS = [[0.0, 0.0], [10.0, 10.0]]


def test_single_record_at_peaks():
    # the peak record proposes its rule alone; the rows at the universe
    # ends land in other cells
    rules = induce(dataset_of([[5.0, 10.0], *ENDS], [1, 0, 0])).rules
    by_ant = {r.antecedent: r for r in rules}
    peak_rule = by_ant[(("x", "medium"), ("y", "high"))]
    assert peak_rule.weight == 1.0
    assert peak_rule.consequent == "positive"


def test_identical_records_opposite_labels_keep_earlier():
    data = dataset_of([[5.0, 5.0], [5.0, 5.0]], [1, 0])
    rules = induce(data).rules
    assert len(rules) == 1
    assert rules[0].consequent == "positive"  # earlier record wins the tie
    flipped = dataset_of([[5.0, 5.0], [5.0, 5.0]], [0, 1])
    rules = induce(flipped).rules
    assert rules[0].consequent == "negative"


def test_conflict_keeps_heavier_rule():
    # both records map to (medium, medium); the second sits closer to peaks
    data = dataset_of([[4.0, 5.0], [5.0, 5.0], *ENDS], [0, 1, 0, 0])
    rules = induce(data).rules
    assert len(rules) == 3
    assert rules[0].antecedent == (("x", "medium"), ("y", "medium"))
    assert rules[0].consequent == "positive"
    assert rules[0].weight == 1.0


def test_min_weight_filter():
    data = dataset_of([[4.0, 5.0], [5.0, 5.0], [9.9, 0.2], *ENDS], [0, 1, 0, 0, 0])
    rules = induce(data, InductionConfig(min_rule_weight=0.9)).rules
    assert rules and all(r.weight >= 0.9 for r in rules)


def test_input_names_must_match_schema(pima_data):
    # the model's inputs are the kept features, named and in order as in
    # the schema, and its rules name no other variable
    model = induce(pima_data, mask=(0, 1, 0, 0, 0, 1, 0, 1))
    assert model.input_names == ("glucose", "bmi", "age")
    assert {var for r in model.rules for var, _ in r.antecedent} <= set(
        model.input_names)


def test_antecedents_unique_and_count_bounded():
    rng = np.random.default_rng(100)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        records = rng.uniform(-3, 3, (n, m))
        labels = rng.integers(0, 2, n)
        if len(np.unique(labels)) < 2:
            labels[0], labels[1] = 0, 1
        names = [f"v{i}" for i in range(m)]
        data = Dataset(make_schema(m, names=names), records, labels)
        rules = induce(data, InductionConfig(partitions_per_input=k)).rules
        antecedents = [r.antecedent for r in rules]
        assert len(set(antecedents)) == len(antecedents)
        assert len(rules) <= min(n, k**m)
        assert all(0.0 <= r.weight <= 1.0 for r in rules)


def test_rule_matrix_matches_oracle_with_ties():
    # records drawn from a few grid points: peaks and crossovers give equal
    # degrees within an input, and repeated points give equal keys and
    # equal weights across records
    rng = np.random.default_rng(300)
    points = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
    for _ in range(60):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        min_weight = float(rng.choice([0.0, 0.25, 0.5]))
        records = rng.choice(points, (n, m))
        records[0], records[-1] = 0.0, 10.0  # every input spans [0, 10]
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        data = Dataset(make_schema(m, names=[f"v{i}" for i in range(m)]),
                       records, labels)
        model = induce(data, InductionConfig(k, min_weight))
        assert [v.universe for v in model.inputs] == [(0.0, 10.0)] * m
        assert model.rules == oracle_rules(model, records, labels, min_weight)


def test_rule_matrix_matches_oracle_past_int8_terms():
    # 140 terms: term indices past what int8 holds; records on the peaks
    # and the crossings give equal degrees and equal weights
    rng = np.random.default_rng(301)
    k = 140
    points = np.arange(0.0, k - 0.5, 0.5)
    for min_weight in (0.0, 0.5):
        records = rng.choice(points, (400, 2))
        records[:40] = records[40:80]  # repeated cells with equal weights
        records[-2], records[-1] = 0.0, k - 1.0  # every input spans [0, k - 1]
        labels = rng.integers(0, 2, 400)
        data = Dataset(make_schema(2, names=["v0", "v1"]), records, labels)
        model = induce(data, InductionConfig(k, min_weight))
        assert [v.universe for v in model.inputs] == [(0.0, k - 1.0)] * 2
        expected = oracle_rules(model, records, labels, min_weight)
        terms = model.inputs[0].term_names  # level1 .. level140, both inputs
        assert max(terms.index(t) for r in expected for _, t in r.antecedent) >= 128
        assert model.rules == expected


def test_keep_heaviest_matches_dict_reference():
    # seeded cells of up to 4 digits, with digits drawn from a few values so
    # that cells repeat, and weights from a few values so that they tie;
    # radices up to 2**40 carry the key past int64, where it is re-ranked
    rng = np.random.default_rng(302)
    past_int64 = 0
    for _ in range(200):
        n = int(rng.integers(1, 300))
        radices = rng.choice([1, 2, 3, 140, 2**20, 2**40],
                             size=int(rng.integers(0, 5))).tolist()
        cells = [rng.choice(np.unique([0, r // 2, r - 1]), n) for r in radices]
        weights = rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()], n)
        min_weight = float(rng.choice([0.0, 0.5]))
        rows = keep_heaviest(cells, radices, weights, min_weight)
        expected = oracle.keep_heaviest(
            list(zip(*cells)) if cells else [()] * n, weights, min_weight
        )
        assert rows.tolist() == expected
        past_int64 += int(np.prod(radices, dtype=object)) * n > 2**63
    assert past_int64 > 20


def test_permutation_changes_only_tie_resolution():
    rng = np.random.default_rng(200)
    records = rng.uniform(0, 10, (25, 2))
    labels = rng.integers(0, 2, 25)
    labels[0], labels[1] = 0, 1
    rules = induce(dataset_of(records, labels)).rules
    perm = rng.permutation(25)
    rules_perm = induce(dataset_of(records[perm], labels[perm])).rules
    # generic float weights: no ties, so the surviving set is identical
    key = lambda r: (r.antecedent, r.consequent, r.weight)
    assert sorted(rules, key=key) == sorted(rules_perm, key=key)


def test_pima_three_feature_matches_independent_rederivation(pima_data):
    mask = (0, 1, 0, 0, 0, 1, 0, 1)  # glucose, bmi, age
    (train_idx, _), = stratified_split(pima_data, SplitPlan.holdout(0.8, seed=3))
    model = induce(pima_data, mask=mask, train_idx=train_idx)
    x_train = pima_data.records[train_idx][:, [1, 5, 7]]
    assert [v.universe for v in model.inputs] == list(
        zip(x_train.min(axis=0).tolist(), x_train.max(axis=0).tolist()))
    assert len(model.rules) <= min(len(x_train), 27)
    assert model.rules == oracle_rules(model, x_train, pima_data.labels[train_idx])


# --- expert rule files ---------------------------------------------------------

def fis_for_rules():
    inputs = (
        uniform_partition("glucose", 0.0, 200.0, 3),
        uniform_partition("bmi", 0.0, 50.0, 3),
        uniform_partition("age", 20.0, 80.0, 3),
    )
    placeholder = (Rule((("glucose", "high"),), "positive"),)
    return FISConfig(inputs, class_output_variable(), placeholder)


def test_parse_single_rule(tmp_path):
    config = fis_for_rules()
    path = tmp_path / "rules.txt"
    path.write_text("IF glucose IS high THEN outcome IS positive\n")
    rules = load_expert_rules(path, config)
    assert rules == (Rule((("glucose", "high"),), "positive", 1.0),)


def test_parse_conjunction_weight_and_case(tmp_path):
    config = fis_for_rules()
    path = tmp_path / "rules.txt"
    path.write_text(
        "# comment line\n"
        "\n"
        "if glucose is high and bmi is medium then outcome is positive weight 0.25\n"
    )
    (rule,) = load_expert_rules(path, config)
    assert rule.antecedent == (("glucose", "high"), ("bmi", "medium"))
    assert rule.weight == 0.25


def test_unknown_term_reports_line(tmp_path):
    config = fis_for_rules()
    path = tmp_path / "rules.txt"
    path.write_text(
        "IF glucose IS high THEN outcome IS positive\n"
        "IF glucose IS enormous THEN outcome IS positive\n"
    )
    with pytest.raises(ConfigError, match="line 2: variable 'glucose' has no term") as exc:
        load_expert_rules(path, config)
    assert "line 2" in str(exc.value)


def test_rule_file_errors_name_the_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# comment\nglucose high gives positive\n")
    with pytest.raises(ConfigError, match="line 2: ") as exc:
        load_expert_rules(path, fis_for_rules())
    assert str(exc.value).startswith(f"{path}: line 2: cannot parse rule")


def test_rule_file_without_rules_is_rejected(tmp_path):
    path = tmp_path / "empty.rules"
    path.write_text("# only a comment\n\n   \n")
    with pytest.raises(ConfigError, match="no rule in the file") as exc:
        read_expert_rules(path)
    assert str(exc.value) == f"{path}: no rule in the file"


def test_unknown_variable_and_output_term(tmp_path):
    # FISConfig's messages, after the file and the line number
    config = fis_for_rules()
    path = tmp_path / "rules.txt"
    for line, message in (
        ("IF ghost IS high THEN outcome IS positive", "unknown variable 'ghost'"),
        ("IF glucose IS huge THEN outcome IS positive",
         "variable 'glucose' has no term 'huge'"),
        ("IF glucose IS high THEN outcome IS maybe",
         "variable 'outcome' has no term 'maybe'"),
        ("IF glucose IS high THEN verdict IS positive",
         "unknown output variable 'verdict'"),
    ):
        path.write_text(f"# rules\n\nIF glucose IS high THEN outcome IS positive\n{line}\n")
        with pytest.raises(ConfigError, match="line 4: ") as exc:
            load_expert_rules(path, config)
        assert str(exc.value) == f"{path}: line 4: {message}"


def test_rule_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("\ufeffIF glucose IS high THEN outcome IS positive\n",
                    encoding="utf-8")
    assert load_expert_rules(path, fis_for_rules()) == (
        Rule((("glucose", "high"),), "positive"),)


def test_parse_errors(tmp_path):
    config = fis_for_rules()
    path = tmp_path / "rules.txt"
    path.write_text("# rules\n\nglucose high gives positive\n")
    with pytest.raises(ConfigError, match="line 3: cannot parse rule"):
        load_expert_rules(path, config)
    path.write_text("IF glucose IS high THEN outcome IS positive WEIGHT heavy\n")
    with pytest.raises(ConfigError, match="line 1: weight is not a number"):
        load_expert_rules(path, config)


def test_full_grid_roundtrip(tmp_path):
    config = fis_for_rules()
    names = ("low", "medium", "high")
    lines = []
    for gl, bm, ag in itertools.product(names, repeat=3):
        consequent = "positive" if (gl, bm, ag).count("high") >= 2 else "negative"
        lines.append(
            f"IF glucose IS {gl} AND bmi IS {bm} AND age IS {ag} "
            f"THEN outcome IS {consequent}"
        )
    path = tmp_path / "grid.rules"
    path.write_text("\n".join(lines) + "\n")
    rules = load_expert_rules(path, config)
    assert len(rules) == 27

    # format_rule writes each rule back as a line the parser reads
    saved = tmp_path / "saved.rules"
    saved.write_text("".join(format_rule(rule, config.output.name) + "\n"
                             for rule in rules))
    assert load_expert_rules(saved, config) == rules


def test_format_rule_includes_weight():
    rule = Rule((("glucose", "high"),), "positive", 0.5)
    text = format_rule(rule, "outcome")
    assert text == "IF glucose IS high THEN outcome IS positive WEIGHT 0.5"
