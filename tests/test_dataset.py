import csv
import statistics

import numpy as np
import pytest

from gafuzzy.cli import _packaged
from gafuzzy.dataset import (
    ColumnStats,
    CostTable,
    Dataset,
    FeatureSpec,
    Schema,
    SplitPlan,
    feature_stats,
    impute_zero_medians,
    load_costs,
    load_csv,
    load_schema,
    mask_cost,
    project,
    save_csv,
    stratified_split,
)
from gafuzzy.errors import (
    ClassTooSmall,
    ConfigError,
    DuplicateFeature,
    EmptyMask,
    LengthMismatch,
    MalformedRow,
    MissingFeature,
    NegativeCost,
    UnknownFeature,
    UnknownLabel,
    WrongColumnCount,
)

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


def test_malformed_row_names_row_number(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2,0\nabc,4,1\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(path, make_schema(2))
    assert exc.value.row == 2
    assert "2" in str(exc.value)


def test_errors_name_the_file_and_keep_their_fields(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2,0\nabc,4,1\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(path, make_schema(2))
    assert exc.value.row == 2
    assert str(exc.value) == f"{path}: row 2: non-numeric value in feature column 'f0'"
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = 2\nf0 = 3\n")
    with pytest.raises(DuplicateFeature) as exc:
        load_costs(path, make_schema(2))
    assert exc.value.name == "f0"
    assert str(exc.value) == f"{path}: feature 'f0' listed more than once"


def test_wrong_column_count(tmp_path):
    path = write(tmp_path, "wide.csv", "1,2,0\n1,2,3,0\n")
    with pytest.raises(WrongColumnCount) as exc:
        load_csv(path, make_schema(2))
    assert exc.value.row == 2


def test_unknown_label(tmp_path):
    path = write(tmp_path, "lab.csv", "1,0\n2,7\n")
    with pytest.raises(UnknownLabel) as exc:
        load_csv(path, make_schema(1))
    assert exc.value.row == 2
    assert "7" in str(exc.value)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/file.csv", make_schema(1))


def test_single_class_rejected(tmp_path):
    path = write(tmp_path, "one.csv", "1,0\n2,0\n")
    with pytest.raises(ConfigError):
        load_csv(path, make_schema(1))


def test_nonfinite_rejected(tmp_path):
    path = write(tmp_path, "inf.csv", "1,0\ninf,1\n")
    with pytest.raises(MalformedRow):
        load_csv(path, make_schema(1))


def test_roundtrip_identity(tmp_path, pima_data, toy4):
    for name, data in (("pima", pima_data), ("toy", toy4)):
        path = tmp_path / f"{name}.csv"
        save_csv(data, path)
        assert load_csv(path, data.schema) == data


# --- schema and costs ----------------------------------------------------------

def test_load_schema_pima(pima_schema):
    assert pima_schema.n_features == 8
    assert pima_schema.label_name == "outcome"
    assert pima_schema.label_index == 8
    assert pima_schema.feature_names[1] == "glucose"
    assert pima_schema.features[6].value_range == (0.078, 2.42)


def test_schema_invariants():
    with pytest.raises(ConfigError):
        Schema((), "y", 0)
    with pytest.raises(ConfigError):  # non-contiguous indices
        Schema((FeatureSpec("a", 0), FeatureSpec("b", 2)), "y", 1)
    with pytest.raises(ConfigError):  # label collides
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
    with pytest.raises(MissingFeature) as exc:
        load_costs(path, schema)
    assert exc.value.name == "f2"


def test_costs_duplicate_feature(tmp_path):
    schema = make_schema(2)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = 2\nf0 = 3\n")
    with pytest.raises(DuplicateFeature):
        load_costs(path, schema)


def test_costs_negative(tmp_path):
    schema = make_schema(2)
    path = write(tmp_path, "c.ini", "[costs]\nf0 = 1\nf1 = -2\n")
    with pytest.raises(NegativeCost):
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
    with pytest.raises(UnknownFeature):
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
    with pytest.raises(LengthMismatch):
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
    with pytest.raises(ClassTooSmall):
        stratified_split(data, SplitPlan.kfold(2, seed=0))
    with pytest.raises(ClassTooSmall):
        stratified_split(
            Dataset(make_schema(1), np.arange(3.0).reshape(-1, 1), np.array([0, 0, 1])),
            SplitPlan.holdout(0.5, seed=0),
        )


def test_split_plan_validation():
    with pytest.raises(ConfigError):
        SplitPlan.holdout(1.0, seed=0)
    with pytest.raises(ConfigError):
        SplitPlan.kfold(1, seed=0)


# --- project -----------------------------------------------------------------

def test_project_identity(toy4):
    assert project(toy4, (1, 1, 1, 1)) == toy4


def test_project_single_column(pima_data):
    sub = project(pima_data, (0, 0, 0, 0, 0, 0, 0, 1))
    assert sub.schema.feature_names == ("age",)
    assert np.array_equal(sub.records[:, 0], pima_data.records[:, 7])
    assert np.array_equal(sub.labels, pima_data.labels)


def test_project_errors(toy4):
    with pytest.raises(EmptyMask):
        project(toy4, (0, 0, 0, 0))
    with pytest.raises(LengthMismatch):
        project(toy4, (1, 0))


def test_project_composition(toy4):
    mask = (1, 0, 1, 0)
    assert project(project(toy4, (1, 1, 1, 1)), mask) == project(toy4, mask)


# --- feature stats -----------------------------------------------------------

def test_stats_constant_columns():
    data = Dataset(make_schema(2), np.array([[5.0, 7.0], [5.0, 7.0]]), np.array([0, 1]))
    stats = feature_stats(data)
    assert stats[0] == ColumnStats("f0", 5.0, 5.0, 5.0)
    assert stats[1] == ColumnStats("f1", 7.0, 7.0, 7.0)


def test_stats_two_records():
    data = Dataset(make_schema(1), np.array([[0.0], [10.0]]), np.array([0, 1]))
    (stat,) = feature_stats(data)
    assert (stat.min, stat.max, stat.mean) == (0.0, 10.0, 5.0)


def test_pima_glucose_stats_against_independent_recomputation(pima_data):
    # independent path: csv + statistics stdlib, no numpy
    with open(_packaged("pima.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    col = header.index("glucose")
    values = [float(r[col]) for r in rows]
    stat = feature_stats(pima_data)[1]
    assert stat.name == "glucose"
    assert stat.min == min(values)
    assert stat.max == max(values)
    assert stat.mean == pytest.approx(statistics.mean(values), abs=1e-9)


# --- imputation ----------------------------------------------------------------

def test_impute_zero_medians():
    records = np.array([[0.0, 1.0], [4.0, 2.0], [8.0, 3.0], [6.0, 0.0]])
    data = Dataset(make_schema(2), records, np.array([0, 1, 0, 1]))
    fixed = impute_zero_medians(data, ["f0"])
    assert fixed.records[0, 0] == 6.0  # median of 4, 8, 6
    assert fixed.records[3, 1] == 0.0  # f1 untouched
    ref = impute_zero_medians(data, ["f0"], reference_indices=np.array([0, 1, 2]))
    assert ref.records[0, 0] == 6.0  # median of 4, 8
    with pytest.raises(UnknownFeature):
        impute_zero_medians(data, ["ghost"])
