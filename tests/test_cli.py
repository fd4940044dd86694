import json
import random
import re
import shutil

import numpy as np
import pytest

from gafuzzy.cli import _packaged, main
from gafuzzy.dataset import stratified_split
from gafuzzy.fuzzy import (
    FISConfig,
    LinguisticVariable,
    Rule,
    Triangular,
    class_output_variable,
    load_model,
    predict,
    save_model,
)
from gafuzzy import selector
from gafuzzy.selector import FitnessConfig

PIMA_ARGS = [
    "--data", str(_packaged("pima.csv")),
    "--schema", str(_packaged("pima.schema")),
    "--costs", str(_packaged("pima.costs")),
]

FAST = ["--pop", "16", "--generations", "6", "--stagnation", "4"]


def read_all(out_dir):
    return {
        p.name: p.read_bytes()
        for p in out_dir.iterdir()
        if p.suffix in (".json", ".csv")
    }


# --- validate -------------------------------------------------------------------

def test_validate_ok(capsys):
    assert main(["validate", *PIMA_ARGS]) == 0
    out = capsys.readouterr().out
    assert "records: 768" in out
    assert "glucose" in out
    assert "total cost: 46.0" in out
    assert "zero-value anomalies" in out


def test_validate_missing_cost_feature(tmp_path, capsys):
    costs = tmp_path / "bad.costs"
    costs.write_text("[costs]\nglucose = 1.0\n")
    code = main(["validate", *PIMA_ARGS[:4], "--costs", str(costs)])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_validate_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    rows = _packaged("pima.csv").read_text().splitlines()
    rows[3] = rows[3].replace(rows[3].split(",")[1], "oops", 1)
    bad.write_text("\n".join(rows) + "\n")
    code = main(["validate", "--data", str(bad), *PIMA_ARGS[2:]])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 4" in err


def test_missing_data_file(capsys):
    code = main(["validate", "--data", "/nope/missing.csv", *PIMA_ARGS[2:]])
    assert code == 2


# --- select ---------------------------------------------------------------------

def test_select_deterministic_and_prints_selection(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["select", *PIMA_ARGS, "--seed", "42", *FAST]
    assert main([*argv, "--out", str(out_a)]) == 0
    first = capsys.readouterr()
    assert main([*argv, "--out", str(out_b)]) == 0

    files_a, files_b = read_all(out_a), read_all(out_b)
    assert set(files_a) == {"result.json", "model.json", "baseline.json", "trace.csv"}
    assert files_a == files_b  # byte-identical across invocations

    assert "selected features:" in first.out
    n_selected = len(
        first.out.split("selected features:")[1].splitlines()[0].split(",")
    )
    assert 1 <= n_selected <= 5
    assert "gen 0:" in first.err  # per-generation log line


def test_generation_log_counts_unique_masks_and_cache_hits(tmp_path, capsys,
                                                           monkeypatch):
    # every gen line carries the distinct masks scored so far and the calls
    # the cache answered: one call per individual, so they add up to the
    # population times the generations so far
    made = []

    class Recording(selector.FitnessEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(selector, "FitnessEvaluator", Recording)
    argv = ["select", *PIMA_ARGS, "--seed", "3", *FAST, "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("gen ")]
    counts = [
        tuple(map(int, re.fullmatch(
            r"gen (\d+): best=\S+ mean=\S+ mask=[01]+ unique=(\d+) hits=(\d+)",
            line,
        ).groups()))
        for line in lines
    ]
    assert [gen for gen, _, _ in counts] == list(range(len(counts)))
    for gen, unique, hits in counts:
        assert unique + hits == 16 * (gen + 1)
    assert len(made) == 1 and counts[-1][1] == made[0].evaluations
    assert counts[-1][2] > 0


def test_select_worker_count_invariant(tmp_path):
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w2"
    argv = ["select", *PIMA_ARGS, "--seed", "7", *FAST]
    assert main([*argv, "--out", str(out_a), "--workers", "1"]) == 0
    assert main([*argv, "--out", str(out_b), "--workers", "2"]) == 0
    assert read_all(out_a) == read_all(out_b)


def test_select_invalid_lambda(tmp_path, capsys):
    code = main(["select", *PIMA_ARGS, "--lambda", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_select_with_impute_and_config_file(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[ga]\npopulation = 16\ngenerations = 5\nstagnation = 4\n"
        "[run]\nseed = 11\nimpute = median\n"
    )
    out = tmp_path / "out"
    code = main(["select", *PIMA_ARGS, "--config", str(config), "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["provenance"]["ga"]["population_size"] == 16
    assert result["provenance"]["master_seed"] == 11


EXPERT_ARGV = ["select", *PIMA_ARGS, "--seed", "21", *FAST]


def run_with_expert_rules(tmp_path):
    """A plain run, then the same run with a two-rule expert file over the
    features it selected; returns both output directories."""
    out = tmp_path / "plain"
    assert main([*EXPERT_ARGV, "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    names = [v["name"] for v in model["inputs"]]

    rules_file = tmp_path / "expert.rules"
    body = " AND ".join(f"{n} IS high" for n in names)
    rules_file.write_text(
        f"IF {body} THEN outcome IS positive\n"
        f"IF {names[0]} IS low THEN outcome IS negative WEIGHT 0.5\n"
    )
    out2 = tmp_path / "expert"
    assert main([*EXPERT_ARGV, "--out", str(out2), "--rules", str(rules_file)]) == 0
    return out, out2


def test_select_with_expert_rules(tmp_path):
    # the first run reveals which features get selected for this seed
    out, out2 = run_with_expert_rules(tmp_path)
    model2 = json.loads((out2 / "model.json").read_text())
    assert len(model2["rules"]) == 2
    assert model2["rules"][1]["weight"] == 0.5
    # the selection itself is untouched by the expert rules; only the
    # accuracy, which scores the saved model, may differ
    plain, expert = (json.loads((d / "result.json").read_text()) for d in (out, out2))
    del plain["accuracy"], expert["accuracy"]
    assert plain == expert

    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("IF unicorn IS high THEN outcome IS positive\n")
    assert main([*EXPERT_ARGV, "--out", str(tmp_path / "x"),
                 "--rules", str(bad_rules)]) == 2


def test_expert_rules_accuracy_scores_saved_model(tmp_path, pima_data, capsys):
    _, out = run_with_expert_rules(tmp_path)
    result = json.loads((out / "result.json").read_text())
    plan = FitnessConfig.from_master_seed(21).resolved_report_plan()
    (_, test_idx), = stratified_split(pima_data, plan)
    kept = [i for i, bit in enumerate(result["best_mask"]) if bit == "1"]
    _, labels = predict(load_model(out / "model.json"),
                        pima_data.records[test_idx][:, kept])
    accuracy = float(np.mean(labels == pima_data.labels[test_idx]))
    assert result["accuracy"] == accuracy
    assert f"holdout accuracy: {accuracy:.4f} " in capsys.readouterr().out


@pytest.mark.parametrize("body, named", [
    ("[ga]\npopulaton = 4\n", "[ga] populaton"),
    ("[ga]\npopulation = 4\n[genetic]\npopulation = 4\n", "[genetic]"),
    ("[DEFAULT]\nseeds = 3\n", "[DEFAULT] seeds"),
])
def test_config_file_rejects_unknown_keys(tmp_path, capsys, body, named):
    # a misspelled key or section must not fall back to a default silently
    config = tmp_path / "run.ini"
    config.write_text(body)
    out = tmp_path / "out"
    for command in ("select", "validate"):
        code = main([command, *PIMA_ARGS, "--config", str(config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and str(config) in err
    assert not out.exists()


def test_one_config_file_serves_every_command(tmp_path):
    # every key any command reads, plus the ignored [run] workers
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        f"[paths]\nout = {out}\n"
        "[run]\nseed = 3\nimpute = none\nworkers = 4\n"
        "[ga]\npopulation = 8\npc = 0.6\npm = 0.05\ngenerations = 2\n"
        "stagnation = 2\nelites = 1\n"
        "[fitness]\nlambda = 0.3\nfolds = 3\n"
        "[fis]\nresolution = 101\nthreshold = 0.5\n"
        "[induction]\npartitions = 3\nmin_rule_weight = 0.0\n"
    )
    argv = [*PIMA_ARGS, "--config", str(config)]
    assert main(["validate", *argv]) == 0
    assert main(["select", *argv]) == 0
    assert main(["report", *argv]) == 0
    assert main(["classify", *argv]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["provenance"]["ga"]["population_size"] == 8


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[ga]\npopulation = 16\ngenerations = 5\nstagnation = 4\n")
    out = tmp_path / "out"
    code = main(["select", *PIMA_ARGS, "--config", str(config),
                 "--pop", "12", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["provenance"]["ga"]["population_size"] == 12


# --- classify -------------------------------------------------------------------

def golden_model(tmp_path):
    u = LinguisticVariable(
        "u", (0.0, 10.0),
        (("low", Triangular(0, 0, 10)), ("high", Triangular(0, 10, 10))),
    )
    v = LinguisticVariable(
        "v", (0.0, 100.0),
        (("low", Triangular(0, 0, 100)), ("high", Triangular(0, 100, 100))),
    )
    config = FISConfig(
        (u, v), class_output_variable(),
        (
            Rule((("u", "high"), ("v", "low")), "negative"),
            Rule((("u", "high"), ("v", "high")), "positive"),
        ),
    )
    path = tmp_path / "model.json"
    save_model(config, path)
    return path


def test_classify_golden_record(tmp_path, capsys):
    model = golden_model(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text("u,v\n6,30\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    out = capsys.readouterr().out
    assert "crisp=0.422494" in out
    assert "class=negative (0)" in out
    assert "top_rule=[IF u IS high AND v IS low THEN outcome IS negative]" in out


def test_classify_lines_for_fired_unfired_and_empty_models(tmp_path, capsys):
    # each record names its strongest rule, or says that none fired; a
    # model without rules fires none and sits on the midpoint
    model = golden_model(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text("u,v\n6,30\n0,100\n10,100\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "record 1: crisp=0.422494 class=negative (0) top_rule=[IF u IS high "
        "AND v IS low THEN outcome IS negative] strength=0.6000",
        "record 2: crisp=0.500000 class=positive (1) top_rule=none (no rule fired)",
        "record 3: crisp=0.667000 class=positive (1) top_rule=[IF u IS high "
        "AND v IS high THEN outcome IS positive] strength=1.0000",
    ]
    config = load_model(model)
    save_model(FISConfig(config.inputs, config.output, ()), model)
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"record {i}: crisp=0.500000 class=positive (1) top_rule=none (no rule fired)"
        for i in (1, 2, 3)
    ]


def test_classify_headerless_and_column_reorder(tmp_path, capsys):
    model = golden_model(tmp_path)
    headerless = tmp_path / "plain.csv"
    headerless.write_text("6,30\n")
    assert main(["classify", "--model", str(model), "--data", str(headerless)]) == 0
    first = capsys.readouterr().out
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("v,u\n30,6\n")
    assert main(["classify", "--model", str(model), "--data", str(reordered)]) == 0
    assert capsys.readouterr().out == first


def test_classify_arity_mismatch(tmp_path, capsys):
    model = golden_model(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text("6,30,1\n")
    code = main(["classify", "--model", str(model), "--data", str(records)])
    assert code == 2
    assert "expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("rows, bad_row", [
    ("u,v\n6,30\nnan,1\n", 3),
    ("u,v\n120,inf\n", 2),
    ("6,30\n-inf,30\n", 2),
], ids=["nan", "inf", "headerless"])
def test_classify_rejects_non_finite_values(tmp_path, capsys, rows, bad_row):
    model = golden_model(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(rows)
    code = main(["classify", "--model", str(model), "--data", str(records)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"row {bad_row}: non-finite value" in captured.err
    assert captured.out == ""


def test_classify_at_feature_means(tmp_path, capsys, pima_data):
    # train quickly, then classify the per-feature mean record
    out = tmp_path / "out"
    assert main(["select", *PIMA_ARGS, "--seed", "3", *FAST,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    model = json.loads((out / "model.json").read_text())
    names = [v["name"] for v in model["inputs"]]
    means = {
        f.name: float(pima_data.records[:, f.index].mean())
        for f in pima_data.schema.features
    }
    records = tmp_path / "mean.csv"
    records.write_text(
        ",".join(names) + "\n" + ",".join(str(means[n]) for n in names) + "\n"
    )
    assert main(["classify", "--model", str(out / "model.json"),
                 "--data", str(records)]) == 0
    out_text = capsys.readouterr().out
    crisp = float(out_text.split("crisp=")[1].split()[0])
    assert 0.0 <= crisp <= 1.0


# --- report ---------------------------------------------------------------------

def test_report_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["select", *PIMA_ARGS, "--seed", "5", *FAST,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "without selection" in text
    assert "with selection" in text
    report = json.loads((out / "report.json").read_text())
    rows = {r["condition"]: r for r in report["rows"]}
    assert rows["with selection"]["cost"] < rows["without selection"]["cost"]
    cost_csv = (out / "cost_series.csv").read_bytes()
    trace_csv = (out / "fitness_trace.csv").read_bytes()
    # repeated invocation: identical outputs
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "cost_series.csv").read_bytes() == cost_csv
    assert (out / "fitness_trace.csv").read_bytes() == trace_csv


def test_report_missing_result(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path)])
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["select", "--pop", "not-a-number"])
    assert exc.value.code == 2


# --- malformed saved files -------------------------------------------------------

@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved") / "out"
    assert main(["select", *PIMA_ARGS, "--seed", "2", *FAST, "--out", str(out)]) == 0
    return out


def numeric_leaves(node, path=()):
    """Key paths of every number in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return [path]
    else:
        return []
    return [leaf for key, value in items for leaf in numeric_leaves(value, path + (key,))]


def run_on_corrupted(saved_run, tmp_path, name, path, value):
    """Copy the run, overwrite one field of one file, and run the command
    that reads that file. Returns (exit code, corrupted file)."""
    out = tmp_path / "run"
    shutil.copytree(saved_run, out)
    target = out / name
    payload = json.loads(target.read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target.write_text(json.dumps(payload))
    if name == "model.json":
        argv = ["classify", "--model", str(target), "--data", str(_packaged("pima.csv"))]
    else:
        argv = ["report", "--out", str(out)]
    return main(argv), target


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("model.json", ("resolution",), "abc"),
        ("model.json", ("decision_threshold",), "abc"),
        ("model.json", ("rules", 0, "weight"), "abc"),
        ("result.json", ("provenance", "fitness", "evaluation", "param"), "abc"),
        ("baseline.json", ("accuracy",), "x"),
        ("baseline.json", ("cost",), float("inf")),  # written as Infinity
    ],
    ids=["model-resolution", "model-threshold", "model-rule-weight",
         "result-evaluation-param", "baseline-accuracy", "baseline-infinite-cost"],
)
def test_malformed_saved_file_exits_2(saved_run, tmp_path, capsys, name, path, value):
    code, target = run_on_corrupted(saved_run, tmp_path, name, path, value)
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(target) in err


def test_seeded_corruption_of_saved_files_exits_2(saved_run, tmp_path, capsys):
    rng = random.Random(2)
    for name in ("model.json", "result.json", "baseline.json"):
        leaves = numeric_leaves(json.loads((saved_run / name).read_text()))
        for i, path in enumerate(rng.sample(leaves, 6)):
            code, target = run_on_corrupted(
                saved_run, tmp_path / f"{name}-{i}", name, path, "abc"
            )
            err = capsys.readouterr().err
            assert code == 2, (name, path, err)
            assert str(target) in err, (name, path, err)
