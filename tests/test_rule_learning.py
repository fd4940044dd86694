import itertools

import numpy as np
import pytest

from gafuzzy.dataset import Dataset, project, stratified_split, SplitPlan
from gafuzzy.errors import ArityMismatch, EmptyTrainingSet, RuleParseError, UnknownTerm
from gafuzzy.fuzzy import FISConfig, Rule, class_output_variable, uniform_partition
from gafuzzy.rule_learning import (
    InductionConfig,
    format_rule,
    induce_rule_matrix,
    induce_rules,
    load_expert_rules,
    parse_rule_line,
    save_expert_rules,
)
from gafuzzy.selector import build_input_variables

import oracle
from conftest import make_schema


def two_var_inputs():
    return [
        uniform_partition("x", 0.0, 10.0, 3),
        uniform_partition("y", 0.0, 10.0, 3),
    ]


def dataset_of(rows, labels):
    return Dataset(make_schema(len(rows[0]), names=["x", "y"][: len(rows[0])]),
                   np.asarray(rows, float), np.asarray(labels))


OUTPUT = class_output_variable("label")


def test_single_record_at_peaks():
    # the peak record proposes its rule alone; the second row (required by
    # the two-class invariant) lands in a different cell
    data = dataset_of([[5.0, 10.0], [0.0, 0.0]], [1, 0])
    rules = induce_rules(data, two_var_inputs(), OUTPUT, InductionConfig())
    by_ant = {r.antecedent: r for r in rules}
    peak_rule = by_ant[(("x", "medium"), ("y", "high"))]
    assert peak_rule.weight == 1.0
    assert peak_rule.consequent == "positive"


def test_identical_records_opposite_labels_keep_earlier():
    data = dataset_of([[5.0, 5.0], [5.0, 5.0]], [1, 0])
    rules = induce_rules(data, two_var_inputs(), OUTPUT, InductionConfig())
    assert len(rules) == 1
    assert rules[0].consequent == "positive"  # earlier record wins the tie
    flipped = dataset_of([[5.0, 5.0], [5.0, 5.0]], [0, 1])
    rules = induce_rules(flipped, two_var_inputs(), OUTPUT, InductionConfig())
    assert rules[0].consequent == "negative"


def test_conflict_keeps_heavier_rule():
    # both records map to (medium, medium); the second sits closer to peaks
    data = dataset_of([[4.0, 5.0], [5.0, 5.0]], [0, 1])
    rules = induce_rules(data, two_var_inputs(), OUTPUT, InductionConfig())
    assert len(rules) == 1
    assert rules[0].consequent == "positive"
    assert rules[0].weight == 1.0


def test_min_weight_filter():
    data = dataset_of([[4.0, 5.0], [5.0, 5.0], [9.9, 0.2]], [0, 1, 0])
    cfg = InductionConfig(min_rule_weight=0.9)
    rules = induce_rules(data, two_var_inputs(), OUTPUT, cfg)
    assert all(r.weight >= 0.9 for r in rules)


def test_empty_training_set():
    inputs = two_var_inputs()
    with pytest.raises(EmptyTrainingSet):
        induce_rule_matrix(np.empty((0, 2)), np.empty(0), inputs, InductionConfig())


def test_input_names_must_match_schema():
    data = dataset_of([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    wrong = [uniform_partition("a", 0, 10, 3), uniform_partition("b", 0, 10, 3)]
    with pytest.raises(ArityMismatch):
        induce_rules(data, wrong, OUTPUT, InductionConfig())


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
        inputs = [
            uniform_partition(names[i], float(records[:, i].min()),
                              float(records[:, i].max()), k)
            for i in range(m)
        ]
        data = Dataset(make_schema(m, names=names), records, labels)
        rules = induce_rules(data, inputs, OUTPUT, InductionConfig(partitions_per_input=k))
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
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        min_weight = float(rng.choice([0.0, 0.25, 0.5]))
        records = rng.choice(points, (n, m))
        labels = rng.integers(0, 2, n)
        inputs = [uniform_partition(f"v{i}", 0.0, 10.0, k) for i in range(m)]
        ant, weights, classes = induce_rule_matrix(
            records, labels, inputs, InductionConfig(k, min_weight)
        )
        expected = [
            rule for rule in oracle.induce(
                records, labels, [oracle.variable_params(v) for v in inputs]
            )
            if rule[1] >= min_weight
        ]
        assert [tuple(row) for row in ant.tolist()] == [e[0] for e in expected]
        assert weights.tolist() == [e[1] for e in expected]
        assert classes.tolist() == [e[2] for e in expected]


def test_rule_matrix_matches_oracle_past_int8_terms():
    # 140 terms: term indices past 127 need the int16 keys; records on the
    # peaks and the crossings give equal degrees and equal weights
    rng = np.random.default_rng(301)
    k = 140
    points = np.arange(0.0, k - 0.5, 0.5)
    for min_weight in (0.0, 0.5):
        records = rng.choice(points, (400, 2))
        records[:40] = records[40:80]  # repeated cells with equal weights
        labels = rng.integers(0, 2, 400)
        inputs = [uniform_partition(f"v{i}", 0.0, k - 1.0, k) for i in range(2)]
        ant, weights, classes = induce_rule_matrix(
            records, labels, inputs, InductionConfig(k, min_weight)
        )
        expected = [
            rule for rule in oracle.induce(
                records, labels, [oracle.variable_params(v) for v in inputs]
            )
            if rule[1] >= min_weight
        ]
        assert max(max(e[0]) for e in expected) >= 128
        assert [tuple(row) for row in ant.tolist()] == [e[0] for e in expected]
        assert weights.tolist() == [e[1] for e in expected]
        assert classes.tolist() == [e[2] for e in expected]


def test_permutation_changes_only_tie_resolution():
    rng = np.random.default_rng(200)
    records = rng.uniform(0, 10, (25, 2))
    labels = rng.integers(0, 2, 25)
    labels[0], labels[1] = 0, 1
    data = dataset_of(records, labels)
    rules = induce_rules(data, two_var_inputs(), OUTPUT, InductionConfig())
    perm = rng.permutation(25)
    shuffled = dataset_of(records[perm], labels[perm])
    rules_perm = induce_rules(shuffled, two_var_inputs(), OUTPUT, InductionConfig())
    # generic float weights: no ties, so the surviving set is identical
    key = lambda r: (r.antecedent, r.consequent, r.weight)
    assert sorted(rules, key=key) == sorted(rules_perm, key=key)


def test_pima_three_feature_matches_independent_rederivation(pima_data):
    sub = project(pima_data, (0, 1, 0, 0, 0, 1, 0, 1))  # glucose, bmi, age
    (train_idx, _), = stratified_split(sub, SplitPlan.holdout(0.8, seed=3))
    x_train = sub.records[train_idx]
    y_train = sub.labels[train_idx]
    inputs = build_input_variables(x_train, sub.schema.feature_names, 3)
    train_view = Dataset(sub.schema, x_train, y_train)
    rules = induce_rules(train_view, inputs, OUTPUT, InductionConfig())

    assert len(rules) <= min(len(x_train), 27)

    expected = oracle.induce(
        x_train, y_train, [oracle.variable_params(v) for v in inputs]
    )
    assert len(rules) == len(expected)
    term_names = [v.term_names for v in inputs]
    for rule, (ant, weight, cls) in zip(rules, expected):
        assert rule.antecedent == tuple(
            (inputs[i].name, term_names[i][t]) for i, t in enumerate(ant)
        )
        assert rule.weight == weight
        assert rule.consequent == OUTPUT.term_names[cls]


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
    with pytest.raises(UnknownTerm) as exc:
        load_expert_rules(path, config)
    assert "line 2" in str(exc.value)


def test_unknown_variable_and_output_term():
    config = fis_for_rules()
    with pytest.raises(UnknownTerm):
        parse_rule_line("IF ghost IS high THEN outcome IS positive", 1, config)
    with pytest.raises(UnknownTerm):
        parse_rule_line("IF glucose IS high THEN outcome IS maybe", 1, config)
    with pytest.raises(UnknownTerm):
        parse_rule_line("IF glucose IS high THEN verdict IS positive", 1, config)


def test_parse_errors():
    config = fis_for_rules()
    with pytest.raises(RuleParseError) as exc:
        parse_rule_line("glucose high gives positive", 3, config)
    assert exc.value.line == 3
    with pytest.raises(RuleParseError):
        parse_rule_line("IF glucose IS high THEN outcome IS positive WEIGHT heavy",
                        1, config)


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

    saved = tmp_path / "saved.rules"
    save_expert_rules(rules, config.output.name, saved)
    assert load_expert_rules(saved, config) == rules


def test_format_rule_includes_weight():
    rule = Rule((("glucose", "high"),), "positive", 0.5)
    text = format_rule(rule, "outcome")
    assert text == "IF glucose IS high THEN outcome IS positive WEIGHT 0.5"
