import csv
import statistics
from dataclasses import replace

import numpy as np
import pytest

from gafuzzy.cli import _packaged, main
from gafuzzy.dataset import (
    CostTable,
    Dataset,
    FeatureSpec,
    Schema,
    SplitPlan,
    impute_zero_medians,
    load_costs,
    load_csv,
    load_records,
    load_schema,
    mask_cost,
    stratified_split,
)
from gafuzzy.errors import ConfigError

from conftest import make_schema


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- load_csv ----------------------------------------------------------------

def test_load_pima(pima_data):
    assert pima_data.n_features == 8
    assert pima_data.n_records == 768
    assert set(np.unique(pima_data.labels)) == {0, 1}


def test_two_row_file(tmp_path):
    path = write(tmp_path, "t.csv", "1,0\n0,1\n")
    data = load_csv(path, make_schema(1))
    assert data.n_records == 2
    assert list(data.labels) == [0, 1]
    assert data.records[0, 0] == 1.0


def test_header_autodetected(tmp_path):
    schema = make_schema(2)
    with_header = load_csv(write(tmp_path, "a.csv", "f0,f1,label\n1,2,0\n3,4,1\n"), schema)
    without = load_csv(write(tmp_path, "b.csv", "1,2,0\n3,4,1\n"), schema)
    assert with_header == without


def test_header_after_a_blank_first_line(tmp_path, pima_schema, pima_data):
    # the first non-blank row is the possible header, as in load_records
    path = tmp_path / "blank-first.csv"
    path.write_bytes(b"\n" + _packaged("pima.csv").read_bytes())
    assert load_csv(path, pima_schema) == pima_data


@pytest.mark.parametrize("first, header", [
    ("f0,f1,label", True), ("1,2,0", False), ("\nf0,f1,label", True),
    ("\ufeff1,2,0", False), ("1,2,label", False), ("1,2,7", False),
], ids=["header", "no-header", "blank-first-line", "bom", "numeric-names",
        "unknown-first-label"])
def test_data_and_records_decide_the_header_alike(tmp_path, first, header):
    # the first non-blank row is a header when a cell read as a number is
    # not one: the feature cells of training data, every cell of records
    lines = [first, "3,4,0", "5,6,1"]
    data = write(tmp_path, "data.csv", "\n".join(lines) + "\n")
    records = write(tmp_path, "records.csv",
                    "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    values = [[1.0, 2.0]] * (not header) + [[3.0, 4.0], [5.0, 6.0]]
    assert load_records(records, ("f0", "f1")).tolist() == values
    if header or first.endswith((",0", ",1")):
        assert load_csv(data, make_schema(2)).records.tolist() == values
    else:
        with pytest.raises(ConfigError, match="row 1: unknown label "):
            load_csv(data, make_schema(2))


@pytest.mark.parametrize("load, text, message", [
    ("records", "f0,f1\n6,1,30\n", "row 2: expected 2 columns, got 3"),
    ("data", "f1,f0,label\n1,2,0\n3,4,1\n", "row 1: column 0 is headed 'f1', not 'f0'"),
    ("data", "f0,f1,outcome\n1,2,0\n3,4,1\n",
     "row 1: column 2 is headed 'outcome', not 'label'"),
], ids=["records-wider", "data-swapped", "data-label-name"])
def test_a_header_names_the_columns_of_every_row(tmp_path, load, text, message):
    # a row is never read by position past its header: a stray comma or
    # swapped columns would shift the values silently
    path = write(tmp_path, "f.csv", text)
    with pytest.raises(ConfigError, match=message):
        if load == "records":
            load_records(path, ("f0", "f1"))
        else:
            load_csv(path, make_schema(2))


@pytest.mark.parametrize("rows, message", [
    (["1,2", "1,x"], "row 2: non-numeric value in feature column 'f1'"),
    (["1,2", "1,inf"], "row 2: non-finite value"),
    (["1,2", "1,2,3"], "row 2: expected "),
    (["", " "], "no data rows"),
], ids=["non-numeric", "non-finite", "width", "empty"])
def test_data_and_records_give_the_same_errors(tmp_path, rows, message):
    records = write(tmp_path, "r.csv", "".join(f"{row}\n" for row in rows))
    data = write(tmp_path, "d.csv", "".join(
        f"{row},0\n" if row.strip() else f"{row}\n" for row in rows))
    for load in (lambda: load_records(records, ("f0", "f1")),
                 lambda: load_csv(data, make_schema(2))):
        with pytest.raises(ConfigError, match=message):
            load()


def test_malformed_row_names_row_number(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2,0\nabc,4,1\n")
    with pytest.raises(ConfigError, match="row 2: ") as exc:
        load_csv(path, make_schema(2))
    assert "2" in str(exc.value)


def test_errors_name_the_file_and_what_was_refused(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2,0\nabc,4,1\n")
    with pytest.raises(ConfigError, match="row 2: ") as exc:
        load_csv(path, make_schema(2))
    assert str(exc.value) == f"{path}: row 2: non-numeric value in feature column 'f0'"
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = 2\nf0 = 3\n")
    with pytest.raises(ConfigError, match="'f0'") as exc:
        load_costs(path, make_schema(2))
    assert str(exc.value) == f"{path}: feature 'f0' listed more than once"


def test_wrong_column_count(tmp_path):
    path = write(tmp_path, "wide.csv", "1,2,0\n1,2,3,0\n")
    with pytest.raises(ConfigError, match="row 2: expected 3 columns, got 4"):
        load_csv(path, make_schema(2))


def test_unknown_label(tmp_path):
    path = write(tmp_path, "lab.csv", "1,0\n2,7\n")
    with pytest.raises(ConfigError, match="row 2: unknown label ") as exc:
        load_csv(path, make_schema(1))
    assert "7" in str(exc.value)


def test_numeric_labels_in_another_format(tmp_path):
    # "1.0" under positive = 1 is positive, as "0.00" is negative
    path = write(tmp_path, "lab.csv", "1,1.0\n2,0.00\n3,1e0\n")
    assert list(load_csv(path, make_schema(1)).labels) == [1, 0, 1]
    # so is the one label that is a number when the other is a word,
    # whichever class it names
    for positive, negative, text, labels in (
        ("yes", "0", "1,yes\n2,0.0\n3,0\n", [1, 0, 0]),
        ("1", "no", "1,1.0\n2,no\n3,1\n", [1, 0, 1]),
    ):
        schema = replace(make_schema(1), positive_label=positive, negative_label=negative)
        path = write(tmp_path, "lab.csv", text)
        assert list(load_csv(path, schema).labels) == labels, (positive, negative)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/file.csv", make_schema(1))


def test_single_class_rejected(tmp_path):
    path = write(tmp_path, "one.csv", "1,0\n2,0\n")
    with pytest.raises(ConfigError, match="both classes must be present"):
        load_csv(path, make_schema(1))


def test_nonfinite_rejected(tmp_path):
    path = write(tmp_path, "inf.csv", "1,0\ninf,1\n")
    with pytest.raises(ConfigError, match="row 2: non-finite value"):
        load_csv(path, make_schema(1))


def test_roundtrip_identity(tmp_path, pima_data, toy4):
    # a header, then each row's features in schema order as repr() of the
    # float, and its label value: load_csv gives the same dataset
    for name, data in (("pima", pima_data), ("toy", toy4)):
        schema = data.schema
        assert schema.label_index == schema.n_features
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*schema.feature_names, schema.label_name])
            for record, label in zip(data.records.tolist(), data.labels):
                writer.writerow([*map(repr, record), (schema.negative_label,
                                                      schema.positive_label)[label]])
        assert load_csv(path, schema) == data


# --- schema and costs ----------------------------------------------------------

def test_load_schema_pima(pima_schema):
    assert pima_schema.n_features == 8
    assert pima_schema.label_name == "outcome"
    assert pima_schema.label_index == 8
    assert pima_schema.feature_names[1] == "glucose"
    assert pima_schema.features[6].value_range == (0.078, 2.42)


def test_schema_invariants():
    with pytest.raises(ConfigError, match="at least one feature"):
        Schema((), "y", 0)
    with pytest.raises(ConfigError, match="contiguous"):
        Schema((FeatureSpec("a", 0), FeatureSpec("b", 2)), "y", 1)
    with pytest.raises(ConfigError, match="label column collides"):
        Schema((FeatureSpec("a", 0),), "y", 0)


def test_load_costs_uniform(tmp_path):
    schema = make_schema(8)
    lines = "\n".join(f"f{i} = 1.0" for i in range(8))
    table = load_costs(write(tmp_path, "c.ini", f"[costs]\n{lines}\n"), schema)
    assert table.total_cost == 8.0


def test_default_pima_costs_total(pima_costs):
    assert 45.0 <= pima_costs.total_cost <= 47.0


def test_costs_missing_feature(tmp_path):
    schema = make_schema(3)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = 2\n")
    with pytest.raises(ConfigError, match="feature 'f2' missing from file"):
        load_costs(path, schema)


def test_costs_duplicate_feature(tmp_path):
    schema = make_schema(2)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = 2\nf0 = 3\n")
    with pytest.raises(ConfigError, match="feature 'f0' listed more than once"):
        load_costs(path, schema)


def test_costs_negative(tmp_path):
    schema = make_schema(2)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = -2\n")
    with pytest.raises(ConfigError, match="feature 'f1' has negative cost -2.0"):
        load_costs(path, schema)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_costs_non_finite(tmp_path, value):
    schema = make_schema(2)
    path = write(tmp_path, "c.ini", f"[costs]\nf0 = 1\nf1 = {value}\n")
    with pytest.raises(ConfigError, match="c.ini.*'f1'"):
        load_costs(path, schema)


@pytest.mark.parametrize("values", [("0", "0.0"), ("1e308", "1e308")])
def test_costs_total_must_be_positive_and_finite(tmp_path, values):
    # fitness divides by the total cost
    schema = make_schema(2)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = {}\nf1 = {}\n".format(*values))
    with pytest.raises(ConfigError, match="c.ini.*sum"):
        load_costs(path, schema)


def test_costs_unknown_feature(tmp_path):
    schema = make_schema(1)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nghost = 2\n")
    with pytest.raises(ConfigError, match="feature 'ghost' not declared in the schema"):
        load_costs(path, schema)


def test_cost_keys_are_exact_feature_names(tmp_path):
    # a cost file's keys keep their case, as schema sections and headers do;
    # a schema's own keys stay case-insensitive
    schema = load_schema(write(tmp_path, "s.ini",
                               "[label]\nName = y\nIndex = 2\n\n[Glucose]\nINDEX = 0\n\n"
                               "[BMI]\nindex = 1\n"))
    assert schema.feature_names == ("Glucose", "BMI")
    table = load_costs(write(tmp_path, "c.ini", "[costs]\nGlucose = 16\nBMI = 1\n"), schema)
    assert table.entries == (("Glucose", 16.0), ("BMI", 1.0))
    path = write(tmp_path, "lower.ini", "[costs]\nglucose = 16\nBMI = 1\n")
    with pytest.raises(ConfigError, match="feature 'glucose' not declared in the schema"):
        load_costs(path, schema)


# --- mask_cost -----------------------------------------------------------------

def costs_of(values):
    return CostTable(tuple((f"f{i}", float(v)) for i, v in enumerate(values)))


def test_mask_cost_examples():
    uniform = costs_of([1.0] * 8)
    assert mask_cost((1,) * 8, uniform) == 8.0
    assert mask_cost((0,) * 8, uniform) == 0.0
    table = costs_of([3, 1, 4, 1, 5, 9, 2, 6])
    assert mask_cost((1, 0, 1, 0, 0, 0, 0, 0), table) == 7.0
    with pytest.raises(ConfigError, match="mask length 2 != 8 features"):
        mask_cost((1, 0), table)


def test_mask_cost_monotone_and_complement():
    rng = np.random.default_rng(123)
    for _ in range(200):
        length = int(rng.integers(1, 10))
        table = costs_of(rng.uniform(0, 10, length))
        sub = tuple(int(b) for b in rng.integers(0, 2, length))
        sup = tuple(max(s, int(b)) for s, b in zip(sub, rng.integers(0, 2, length)))
        assert mask_cost(sub, table) <= mask_cost(sup, table)
        comp = tuple(1 - b for b in sub)
        full = (1,) * length
        assert mask_cost(full, table) - mask_cost(sub, table) == pytest.approx(
            mask_cost(comp, table), rel=1e-12, abs=1e-12
        )


# --- stratified splits ------------------------------------------------------------

def balanced_dataset(n):
    labels = np.array([0, 1] * (n // 2))
    records = np.arange(n, dtype=float).reshape(-1, 1)
    return Dataset(make_schema(1), records, labels)


def test_holdout_proportions():
    data = balanced_dataset(10)
    (train, test), = stratified_split(data, SplitPlan.holdout(0.8, seed=5))
    assert len(train) == 8 and len(test) == 2
    assert np.sum(data.labels[train]) == 4  # 4 of each class in train
    assert np.sum(data.labels[test]) == 1
    assert sorted(np.concatenate([train, test])) == list(range(10))


def test_kfold_balanced_100():
    data = balanced_dataset(100)
    folds = stratified_split(data, SplitPlan.kfold(5, seed=9))
    assert len(folds) == 5
    seen = []
    for train, test in folds:
        assert len(test) == 20
        assert np.sum(data.labels[test]) == 10
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 100
        seen.append(test)
    union = np.sort(np.concatenate(seen))
    assert list(union) == list(range(100))  # disjoint cover


def test_split_deterministic():
    data = balanced_dataset(30)
    for plan in (SplitPlan.holdout(0.7, seed=42), SplitPlan.kfold(3, seed=42)):
        a = stratified_split(data, plan)
        b = stratified_split(data, plan)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)


def test_split_proportionality_random():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n0 = int(rng.integers(5, 40))
        n1 = int(rng.integers(5, 40))
        labels = np.array([0] * n0 + [1] * n1)
        data = Dataset(make_schema(1), np.zeros((n0 + n1, 1)) + np.arange(n0 + n1)[:, None], labels)
        frac = float(rng.uniform(0.3, 0.9))
        (train, _), = stratified_split(data, SplitPlan.holdout(frac, seed=1))
        for cls, total in ((0, n0), (1, n1)):
            got = int(np.sum(data.labels[train] == cls))
            assert abs(got - frac * total) <= 1.0


def test_class_too_small():
    labels = np.array([0, 0, 0, 1])
    data = Dataset(make_schema(1), np.arange(4.0).reshape(-1, 1), labels)
    with pytest.raises(ConfigError, match="a class has fewer than k=2 members"):
        stratified_split(data, SplitPlan.kfold(2, seed=0))
    with pytest.raises(ConfigError, match="holdout needs at least 2 members per class"):
        stratified_split(
            Dataset(make_schema(1), np.arange(3.0).reshape(-1, 1), np.array([0, 0, 1])),
            SplitPlan.holdout(0.5, seed=0),
        )


def test_split_plan_validation():
    with pytest.raises(ConfigError, match="holdout train fraction must lie in"):
        SplitPlan.holdout(1.0, seed=0)
    with pytest.raises(ConfigError, match="k must be an integer >= 2"):
        SplitPlan.kfold(1, seed=0)


# --- the feature table validate prints -----------------------------------------

def validate_table(tmp_path, capsys, rows, costs):
    """The feature lines `validate` prints for a headerless table of these
    rows, whose last cell is the 0/1 label, with these feature costs."""
    names = [f"f{i}" for i in range(len(costs))]
    schema = write(tmp_path, "t.schema", f"[label]\nname = label\nindex = {len(names)}\n"
                   + "".join(f"[{f}]\nindex = {i}\n" for i, f in enumerate(names)))
    data = write(tmp_path, "t.csv", "".join(",".join(map(str, r)) + "\n" for r in rows))
    cost_file = write(tmp_path, "t.costs", "[costs]\n" + "".join(
        f"{f} = {c}\n" for f, c in zip(names, costs)))
    assert main(["validate", "--data", str(data), "--schema", str(schema),
                 "--costs", str(cost_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(f"{'feature':<16} {'min':>10} {'max':>10} {'mean':>10} "
                         f"{'cost':>8} {'zeros':>6}")
    return lines[header + 1:header + 1 + len(names)]


def test_stats_constant_columns(tmp_path, capsys):
    assert validate_table(tmp_path, capsys, [[5, 7, 0], [5, 7, 1]], [1, 2.5]) == [
        "f0                    5.000      5.000      5.000     1.00      0",
        "f1                    7.000      7.000      7.000     2.50      0",
    ]


def test_stats_two_records(tmp_path, capsys):
    assert validate_table(tmp_path, capsys, [[0, 0], [10, 1]], [1]) == [
        "f0                    0.000     10.000      5.000     1.00      1",
    ]


def test_pima_glucose_stats_against_independent_recomputation(capsys):
    # independent path: csv + statistics stdlib, no numpy
    with open(_packaged("pima.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    col = header.index("glucose")
    values = [float(r[col]) for r in rows]
    assert main(["validate"]) == 0
    line, = [s for s in capsys.readouterr().out.splitlines() if s.startswith("glucose ")]
    assert line.split() == [
        "glucose", f"{min(values):.3f}", f"{max(values):.3f}",
        f"{statistics.mean(values):.3f}", "16.00", str(values.count(0.0)),
    ]


# --- imputation ----------------------------------------------------------------

def test_impute_zero_medians():
    records = np.array([[0.0, 1.0], [4.0, 2.0], [8.0, 3.0], [6.0, 0.0]])
    data = Dataset(make_schema(2), records, np.array([0, 1, 0, 1]))
    fixed = impute_zero_medians(data, ["f0"])
    assert fixed.records[0, 0] == 6.0  # median of 4, 8, 6
    assert fixed.records[3, 1] == 0.0  # f1 untouched
    ref = impute_zero_medians(data, ["f0"], reference_indices=np.array([0, 1, 2]))
    assert ref.records[0, 0] == 6.0  # median of 4, 8
    with pytest.raises(ConfigError, match="feature 'ghost' not declared in the schema"):
        impute_zero_medians(data, ["ghost"])
