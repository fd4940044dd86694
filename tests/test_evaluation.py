import json
from dataclasses import replace

import numpy as np
import pytest

from gafuzzy.errors import ConfigError
from gafuzzy.evaluation import (
    BaselineRun,
    ConfusionMatrix,
    build_report,
    format_report,
    load_baseline,
    save_baseline,
    save_report,
    score,
)
from gafuzzy.ga import GAParams, GenerationStats
from gafuzzy.jsonio import decode, encode
from gafuzzy.rule_learning import InductionConfig
from gafuzzy.selector import (
    FitnessConfig,
    Provenance,
    SelectionResult,
)


def test_score_examples():
    labels = [1, 0, 1, 0, 1]
    acc, matrix = score(labels, labels)
    assert acc == 1.0
    assert (matrix.tp, matrix.tn, matrix.fp, matrix.fn) == (3, 2, 0, 0)
    flipped = [1 - v for v in labels]
    acc, matrix = score(flipped, labels)
    assert acc == 0.0
    assert (matrix.fp, matrix.fn) == (2, 3)


def test_score_reference_percentages():
    # the shape of the two report rows: 69% and 87% of 100 records
    labels = [1] * 50 + [0] * 50
    baseline_preds = [1] * 35 + [0] * 15 + [0] * 34 + [1] * 16
    acc, _ = score(baseline_preds, labels)
    assert acc == pytest.approx(0.69)
    selected_preds = [1] * 44 + [0] * 6 + [0] * 43 + [1] * 7
    acc, _ = score(selected_preds, labels)
    assert acc == pytest.approx(0.87)


def test_score_errors():
    with pytest.raises(ConfigError, match="predictions and labels differ in length"):
        score([1, 0], [1])
    with pytest.raises(ConfigError, match="nothing to score"):
        score([], [])


def test_confusion_consistency_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        acc, matrix = score(preds, labels)
        assert matrix.total == n
        assert acc == matrix.accuracy == float(np.mean(preds == labels))


def make_result(fingerprint, mask=(0, 1, 0, 0, 0, 1, 0, 1), accuracy=0.85,
                cost=18.0, master=7, fcfg=None):
    fcfg = fcfg or FitnessConfig.from_master_seed(master)
    trace = [
        GenerationStats(0, 0.5, 0.4, mask),
        GenerationStats(1, 0.6, 0.5, mask),
    ]
    provenance = Provenance(
        GAParams(seed=1), fcfg, InductionConfig(), fingerprint, 768, master
    )
    names = tuple(f"f{i}" for i, b in enumerate(mask) if b)
    return SelectionResult(mask, names, accuracy, cost, 0.6, trace,
                           provenance, model=None)


def make_baseline(fingerprint, master=7, accuracy=0.72):
    fcfg = FitnessConfig.from_master_seed(master)
    return BaselineRun(
        accuracy=accuracy,
        confusion=ConfusionMatrix(40, 15, 70, 29),
        feature_count=8,
        cost=46.0,
        dataset_fingerprint=fingerprint,
        report_seed=fcfg.report_plan.seed,
    )


def test_build_report_rows():
    baseline = make_baseline("abc")
    result = make_result("abc")
    report = build_report(baseline, result)
    without, with_sel = report.rows
    assert without.condition == "without selection"
    assert without.cost == 46.0  # full cost
    assert without.selected_count == without.original_feature_count == 8
    assert with_sel.cost == 18.0
    assert with_sel.selected_count == 3
    assert with_sel.selected_count <= with_sel.original_feature_count


def test_build_report_fingerprint_mismatch():
    with pytest.raises(ConfigError, match="computed on different datasets"):
        build_report(make_baseline("abc"), make_result("xyz"))
    # same data, different reporting split
    with pytest.raises(ConfigError, match="used different reporting splits"):
        build_report(make_baseline("abc", master=7), make_result("abc", master=8))


def test_format_report_one_decimal():
    report = build_report(make_baseline("abc", accuracy=0.6912),
                          make_result("abc", accuracy=0.8749))
    text = format_report(report)
    assert "69.1%" in text
    assert "87.5%" in text
    assert text.count("\n") == 2  # header + two rows


def test_baseline_roundtrip(tmp_path):
    baseline = make_baseline("fp")
    path = tmp_path / "baseline.json"
    save_baseline(baseline, path)
    assert load_baseline(path) == baseline
    assert decode(BaselineRun, encode(baseline)) == baseline


@pytest.mark.parametrize("run", [
    make_result("abc"),
    # the reporting plan of the CV seed, no master seed, and a k-fold param
    # written as 5
    make_result("abc", fcfg=FitnessConfig(), master=None),
    make_baseline("abc"),
    build_report(make_baseline("abc"), make_result("abc")),
], ids=["result", "result-defaults", "baseline", "report"])
def test_run_files_decode_to_what_was_encoded(run):
    text = json.dumps(encode(run))
    decoded = decode(type(run), json.loads(text))
    assert decoded == run
    assert json.dumps(encode(decoded)) == text


def test_a_number_too_large_for_its_field_names_the_file(tmp_path):
    path = tmp_path / "baseline.json"
    save_baseline(make_baseline("fp"), path)
    path.write_text(path.read_text().replace('"feature_count": 8', '"feature_count": 1e400'))
    with pytest.raises(ConfigError) as exc:
        load_baseline(path)
    assert str(exc.value).startswith(f"{path}: malformed baseline file")


def test_a_run_file_is_never_written_with_an_infinity(tmp_path):
    # a value no reader accepts stops the writer instead
    baseline = replace(make_baseline("fp"), cost=float("inf"))
    with pytest.raises(ValueError):
        save_baseline(baseline, tmp_path / "baseline.json")


def test_save_report_deterministic(tmp_path):
    report = build_report(make_baseline("abc"), make_result("abc"))
    save_report(report, tmp_path / "a.json")
    save_report(report, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
