import contextlib
import csv
import itertools
import json
import random
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from gafuzzy.cli import OPTIONS, _packaged, main
from gafuzzy.dataset import stratified_split
from gafuzzy.fuzzy import (
    CompiledFIS,
    FISConfig,
    LinguisticVariable,
    Rule,
    Triangular,
    class_output_variable,
    load_model,
    predict,
    save_model,
    uniform_partition,
)
from gafuzzy import dataset as ds, fuzzy, selector
from gafuzzy.errors import GafuzzyError
from gafuzzy.rule_learning import format_rule
from gafuzzy.selector import FitnessConfig

from conftest import class_levels

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


@pytest.mark.parametrize("command", ["validate", "select"])
@pytest.mark.parametrize("glucose, expected", [
    ("0", "sum to 0"), ("nan", "'glucose'"), ("inf", "'glucose'"),
], ids=["all-zero", "nan", "inf"])
def test_bad_costs_exit_2_naming_the_file(tmp_path, capsys, command, glucose,
                                          expected):
    names = [line.split("=")[0].strip() for line in
             _packaged("pima.costs").read_text().splitlines() if "=" in line]
    costs = tmp_path / "bad.costs"
    costs.write_text("[costs]\n" + "".join(
        f"{n} = {glucose if n == 'glucose' else 0}\n" for n in names
    ))
    argv = [command, *PIMA_ARGS[:4], "--costs", str(costs)]
    if command == "select":
        argv += [*FAST, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(costs) in err and expected in err


@pytest.mark.parametrize("bound, value", [
    ("min", "inf"), ("max", "nan"), ("min", "-inf"), ("max", "-5"),
])
def test_validate_rejects_bad_schema_range(tmp_path, capsys, bound, value):
    # non-finite, or min > max: the message names the file and the section
    schema = tmp_path / "bad.schema"
    text = _packaged("pima.schema").read_text()
    block = "[glucose]\nindex = 1\nmin = 0\nmax = 199\n"
    assert block in text
    default = {"min": "0", "max": "199"}[bound]
    schema.write_text(text.replace(block, block.replace(
        f"{bound} = {default}", f"{bound} = {value}")))
    argv = ["validate", *PIMA_ARGS[:2], "--schema", str(schema), *PIMA_ARGS[4:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(schema) in err and "[glucose]" in err


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


def input_argv(command, tmp_path, data):
    """validate with the bundled schema and costs, or classify with the
    golden model, on this data file."""
    if command == "validate":
        return ["validate", "--data", str(data), *PIMA_ARGS[2:]]
    return ["classify", "--model", str(golden_model(tmp_path)), "--data", str(data)]


@pytest.mark.parametrize("command, flag", [
    ("validate", "--data"), ("validate", "--schema"),
    ("classify", "--data"), ("classify", "--model"),
])
def test_directory_as_input_exits_2(tmp_path, capsys, command, flag):
    argv = input_argv(command, tmp_path, _packaged("pima.csv"))
    argv[argv.index(flag) + 1] = str(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("command, text", [
    ("validate", _packaged("pima.csv").read_text().replace("\n1,", "\n\xe9,", 1)),
    ("classify", "u,v\n6,30\n\xe9,1\n"),
], ids=["validate", "classify"])
def test_data_that_is_not_utf8_exits_2(tmp_path, capsys, command, text):
    data = tmp_path / "latin1.csv"
    data.write_bytes(text.encode("latin-1"))
    assert main(input_argv(command, tmp_path, data)) == 2
    err = capsys.readouterr().err
    assert f"{data}: not UTF-8 text" in err


def packaged_with(name, old, new):
    """A bundled file's bytes with the first old replaced by new."""
    data = _packaged(name).read_bytes()
    assert old in data
    return data.replace(old, new, 1)


def argv_with(command, flag, path, out):
    """command on the bundled files, with path given for flag; select runs
    a tiny search."""
    argv = [command, *PIMA_ARGS]
    if command == "select":
        argv += ["--pop", "4", "--generations", "1", "--out", str(out)]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(path)
    else:
        argv += [flag, str(path)]
    return argv


@pytest.mark.parametrize("flag, data", [
    ("--config", b"population = 8\n"),
    ("--config", b"[ga]\npopulation = 8\npopulation = 9\n"),
    ("--config", b"[ga]\npopulation = 8\n[ga]\npc = 0.5\n"),
    ("--config", b"[ga]\n\n  population\n"),
    ("--config", b"[ga]\npopulation = 8\xff\n"),
    ("--schema", packaged_with("pima.schema", b"glucose", b"gluc\xffose")),
    ("--costs", packaged_with("pima.costs", b"glucose", b"gluc\xffose")),
    ("--rules", b"IF glucose IS high THEN outcome IS positive\xff\n"),
], ids=["config-no-section", "config-duplicate-key", "config-duplicate-section",
        "config-indented-line", "config-not-utf8", "schema-not-utf8",
        "costs-not-utf8", "rules-not-utf8"])
def test_malformed_user_file_exits_2_naming_it(tmp_path, capsys, flag, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    command = "select" if flag == "--rules" else "validate"
    assert main(argv_with(command, flag, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err[err.index("error: "):].startswith(f"error: {path}: "), err
    assert "feature" not in err  # a config key is no feature


def pima_rows(row, cell, value):
    """The bundled data with one cell of one row (1 is the header) replaced."""
    lines = _packaged("pima.csv").read_text().splitlines(keepends=True)
    cells = lines[row - 1].split(",")
    cells[cell] = value
    lines[row - 1] = ",".join(cells)
    return "".join(lines).encode()


FIELD_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("command, flag, data, message", [
    ("validate", "--data", pima_rows(4, -1, "maybe\n"), "row 4: unknown label 'maybe'"),
    ("validate", "--costs", packaged_with("pima.costs", b"insulin = 18.0\n", b""),
     "feature 'insulin' missing from file"),
    ("validate", "--costs", packaged_with("pima.costs", b"age", b"age = 1\npregnancies"),
     "feature 'pregnancies' listed more than once"),
    ("select", "--rules", b"IF unicorn IS high THEN outcome IS positive\n",
     "line 1: unknown variable 'unicorn'"),
    ("validate", "--data", pima_rows(2, 1, "1" * (FIELD_LIMIT + 1)),
     f"field larger than field limit ({FIELD_LIMIT})"),
    ("classify", "--data", b"u,v\n6,30\n" + b"1" * (FIELD_LIMIT + 1) + b",30\n",
     f"field larger than field limit ({FIELD_LIMIT})"),
], ids=["data-label", "costs-missing", "costs-duplicate", "rules-variable",
        "data-long-cell", "records-long-cell"])
def test_rejection_names_the_file(tmp_path, capsys, command, flag, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    if command == "classify":
        argv = input_argv(command, tmp_path, path)
    else:
        argv = argv_with(command, flag, path, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err[err.index("error: "):] == f"error: {path}: {message}\n"


def corrupt(rng, data):
    """data, the bytes of a user file, with one to three seeded corruptions
    of a byte, a line, a cell or a key."""
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        at = rng.randrange(len(lines))
        line = lines[at]
        op = rng.choice(["byte", "drop-byte", "drop-line", "repeat-line",
                         "indent", "cell", "key", "truncate"])
        if op in ("byte", "drop-byte") and line:
            i = rng.randrange(len(line))
            new = rng.choice([b"\xff", b"\xe9", b",", b"=", b"[", b"]", b"#",
                              b'"', b" ", b"\n", b"\x00", b"-", b"9"])
            lines[at] = line[:i] + (new if op == "byte" else b"") + line[i + 1:]
        elif op == "drop-line":
            del lines[at]
        elif op == "repeat-line":
            lines.insert(at, line)
        elif op == "indent":
            lines[at] = b"  " + line
        elif op == "cell":
            token = rng.choice([b"", b"abc", b"nan", b"inf", b"-1", b"1e400",
                                b"1_0", b'"7"', b"0"])
            key, eq, _ = line.partition(b"=")
            if eq:
                lines[at] = key + eq + b" " + token
            else:
                cells = line.split(b",")
                cells[rng.randrange(len(cells))] = token
                lines[at] = b",".join(cells)
        elif op == "key" and line:
            # rename a key or section, or the header's name of a column
            i = rng.randrange(len(line.partition(b"=")[0]))
            lines[at] = line[:i] + rng.choice([b"x", b"_", b"A", b""]) + line[i + 1:]
        elif op == "truncate":
            lines = lines[:at]
        data = b"\n".join(lines)
    return data


def test_seeded_fuzz_of_user_files(tmp_path, capsys):
    # whatever a data, schema, cost, config or expert rule file holds, the
    # command exits 0, or 2 naming one of the files it was given
    files = {
        "--data": _packaged("pima.csv").read_bytes(),
        "--schema": _packaged("pima.schema").read_bytes(),
        "--costs": _packaged("pima.costs").read_bytes(),
        "--config": b"[run]\nseed = 3\nimpute = none\n[ga]\npopulation = 8\n"
                    b"pc = 0.6\n[fitness]\nlambda = 0.3\n[fis]\nthreshold = 0.5\n",
    }
    out = tmp_path / "out"
    assert main(argv_with("select", "--seed", "4", out)) == 0
    names = load_model(out / "model.json").input_names
    files["--rules"] = (
        f"# rules over the selected features\n"
        f"IF {names[0]} IS high AND {names[-1]} IS low THEN outcome IS positive\n"
        f"IF {names[0]} IS low THEN outcome IS negative WEIGHT 0.5\n"
    ).encode()
    rng = random.Random(15)
    codes = []
    for draw in range(90):
        flag = "--rules" if draw % 15 == 0 else rng.choice(sorted(set(files) - {"--rules"}))
        path = tmp_path / f"input{flag.replace('-', '.')}"
        data = corrupt(rng, files[flag])
        path.write_bytes(data)
        argv = argv_with("select" if flag == "--rules" else "validate", flag, path, out)
        if flag == "--rules":
            argv += ["--seed", "4"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (flag, data, err)
        if code == 2:
            named = [argv[i + 1] for i, arg in enumerate(argv) if arg in files]
            assert any(name in err for name in named), (flag, data, err)
        codes.append(code)
    assert 10 < codes.count(2) < 80, codes


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_select_non_finite_lambda(tmp_path, capsys, value):
    code = main(["select", *PIMA_ARGS, "--lambda", value, "--out", str(tmp_path)])
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


def test_malformed_rules_stop_select_before_the_search(tmp_path, capsys):
    # a rule file that does not parse exits 2 before the first generation
    # is scored and before the output directory is made
    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("IF glucose IS high THEN outcome IS positive\n"
                         "IF glucose high THEN outcome IS positive\n")
    out = tmp_path / "out"
    assert main([*EXPERT_ARGV, "--out", str(out), "--rules", str(bad_rules)]) == 2
    err = capsys.readouterr().err
    assert f"{bad_rules}: line 2: cannot parse" in err
    assert not any(line.startswith("gen ") for line in err.splitlines())
    assert not out.exists()


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
    # a known key reaches no section from [DEFAULT], so it is rejected too
    ("[DEFAULT]\npopulation = 4\n", "[DEFAULT] population"),
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


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [
    ("resolution", "-1"), ("resolution", "2"), ("threshold", "1.5"),
])
def test_fis_settings_are_checked_before_the_search(tmp_path, capsys, source,
                                                    key, value):
    out = tmp_path / "out"
    argv = ["select", *PIMA_ARGS, *FAST, "--out", str(out)]
    if source == "flag":
        argv += [f"--{key}", value]
    else:
        config = tmp_path / "run.ini"
        config.write_text(f"[fis]\n{key} = {value}\n")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "gen " not in err
    assert not out.exists()


def test_seeded_fuzz_of_config_values_exits_2(tmp_path, capsys):
    # every token is invalid for every numeric selection knob: some do not
    # parse, the others (-1, and nan, inf, 1e400 as floats) break a range
    tokens = ["abc", "", "nan", "inf", "-1", "1e400"]
    knobs = [opt for opt in OPTIONS.values() if opt.field]
    assert {opt.type for opt in knobs} == {int, float}
    rng = random.Random(13)
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    for opt in knobs:
        for token in rng.sample(tokens, 3):
            config.write_text(f"[{opt.section}]\n{opt.key} = {token}\n")
            code = main(["select", *PIMA_ARGS, "--config", str(config),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2, (opt.key, token, err)
            assert not out.exists()
            parses = token == "-1" or (opt.type is float
                                       and token in ("nan", "inf", "1e400"))
            if not parses:
                assert f"[{opt.section}] {opt.key}" in err, (opt.key, token, err)


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


@pytest.mark.parametrize("term, shape", [
    ("positive", {"shape": "gaussian", "params": [1.0, 0.3]}),
    ("negative", {"shape": "trapezoidal", "params": [0.0, 0.0, 0.6, 0.6]}),
], ids=["gaussian", "vertical-edge"])
def test_classify_rejects_output_terms_without_closed_form(tmp_path, capsys,
                                                           term, shape):
    model = golden_model(tmp_path)
    payload = json.loads(model.read_text())
    for entry in payload["output"]["terms"]:
        if entry["name"] == term:
            entry.update(shape)
    model.write_text(json.dumps(payload))
    records = tmp_path / "records.csv"
    records.write_text("u,v\n6,30\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 2
    err = capsys.readouterr().err
    assert str(model) in err and f"term {term!r}" in err


def test_classify_lines_for_fired_unfired_and_empty_models(tmp_path, capsys):
    # each record names its strongest rule, or says that none fired; a
    # model without rules fires none and sits on the midpoint
    model = golden_model(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text("u,v\n6,30\n0,100\n10,100\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "record 1: crisp=0.422494 class=negative (0) top_rule=[IF u IS high "
        "AND v IS low THEN outcome IS negative] strength=0.6000",
        "record 2: crisp=0.500000 class=positive (1) top_rule=none (no rule fired)",
        "record 3: crisp=0.667000 class=positive (1) top_rule=[IF u IS high "
        "AND v IS high THEN outcome IS positive] strength=1.0000",
    ]
    # the no-fire default is counted on stderr, outside the record lines
    assert captured.err == (
        "classified 3 records, 1 fired no rule (crisp at the output midpoint)\n"
    )
    config = load_model(model)
    save_model(FISConfig(config.inputs, config.output, ()), model)
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"record {i}: crisp=0.500000 class=positive (1) top_rule=none (no rule fired)"
        for i in (1, 2, 3)
    ]
    assert captured.err == (
        "classified 3 records, 3 fired no rule (crisp at the output midpoint)\n"
    )


@pytest.mark.parametrize("negative, positive, label", [
    (0.32000000000000006, 0.32, "negative (0)"),
    (0.32, 0.32000000000000006, "positive (1)"),
    (0.32, 0.32, "positive (1)"),
])
def test_classify_line_at_a_near_tie(tmp_path, capsys, negative, positive,
                                     label):
    # the record fires each rule at its weight, so its class levels are the
    # two weights: the printed crisp value is rounded to the midpoint, and
    # the class comes from comparing the levels, 1 ulp apart or equal
    config = load_model(golden_model(tmp_path))
    rules = (
        Rule((("u", "high"),), "negative", negative),
        Rule((("v", "high"),), "positive", positive),
    )
    model = tmp_path / "near_tie.json"
    save_model(FISConfig(config.inputs, config.output, rules), model)
    records = tmp_path / "records.csv"
    records.write_text("u,v\n10,100\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith(f"record 1: crisp=0.500000 class={label} ")


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
    ("u,v\n\n6,30\n\nnan,1\n", 5),
], ids=["nan", "inf", "headerless", "blank-lines"])
def test_classify_rejects_non_finite_values(tmp_path, capsys, rows, bad_row):
    model = golden_model(tmp_path)
    records = tmp_path / "records.csv"
    records.write_text(rows)
    code = main(["classify", "--model", str(model), "--data", str(records)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"row {bad_row}: non-finite value" in captured.err
    assert captured.out == ""


def corrupt_records(rng):
    """A small records file for the golden model (inputs u and v) with
    seeded corruptions, as bytes."""
    lines = [["u", "v"]] + [
        [f"{rng.uniform(0, 10):.3f}", f"{rng.uniform(0, 100):.2f}"]
        for _ in range(rng.randint(1, 5))
    ]
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        op = rng.choice([
            "reorder", "duplicate", "extra", "no-header",
            "header-only", "short", "long", "trailing-comma", "blank",
            "quote", "underscore", "comment", "non-finite", "latin-1",
        ])
        row = rng.randrange(len(lines))
        if op == "reorder":
            lines = [cells[::-1] for cells in lines]
        elif op == "duplicate":
            lines = [cells + cells[:1] for cells in lines]
        elif op == "extra":
            at = rng.randint(0, 2)
            lines = [cells[:at] + [rng.choice(["w", "0.5", '"1,2,3,4"', '"\n5,6,"'])]
                     + cells[at:] for cells in lines]
        elif op == "no-header":
            lines = lines[1:]
        elif op == "header-only":
            lines = lines[:1]
        elif op == "short" and lines[row]:
            lines[row] = lines[row][:-1]
        elif op in ("long", "trailing-comma"):
            lines[row] = lines[row] + ["7" if op == "long" else ""]
        elif op == "blank":
            lines.insert(row, rng.choice([[], ["  "], ["", "", "", ""]]))
        elif lines[row]:
            cell = rng.randrange(len(lines[row]))
            lines[row][cell] = {
                "quote": f'"{lines[row][cell]}"', "underscore": "1_000",
                "comment": "#" + lines[row][cell],
                "non-finite": rng.choice(["nan", "inf", "-inf"]),
                "latin-1": "\xe9",
            }[op]
    end = rng.choice(["\n", "\r\n", "\r"])
    text = "".join(",".join(cells) + end for cells in lines)
    if rng.random() < 0.2:
        text = text.removesuffix(end)
    bom = "\ufeff" if rng.random() < 0.1 else ""
    return (bom + text).encode("utf-8").replace(b"\xc3\xa9", b"\xe9")


def test_seeded_fuzz_of_classify_records(tmp_path, capsys):
    # the one-pass parse accepts a file only with the row loop's array, and
    # classify exits 0, or 2 naming the file, whatever the file holds
    model = golden_model(tmp_path)
    names = load_model(model).input_names
    path = tmp_path / "records.csv"
    rng = random.Random(14)
    seen = {"one pass": 0, "row loop": 0, "rejected": 0}
    for _ in range(300):
        data = corrupt_records(rng)
        path.write_bytes(data)
        try:
            expected = ds._csv_records(path, names)
        except GafuzzyError:
            expected = None
        records = ds._loadtxt_records(path, names)
        if records is not None:
            assert expected is not None, data
            assert records.shape == expected.shape, data
            assert records.tobytes() == expected.tobytes(), data
        seen["rejected" if expected is None
             else "row loop" if records is None else "one pass"] += 1
        code = main(["classify", "--model", str(model), "--data", str(path)])
        err = capsys.readouterr().err
        assert code == (0 if expected is not None else 2), (data, err)
        if code == 2:
            assert str(path) in err, (data, err)
    assert min(seen.values()) > 30, seen
    for data in (b"", b"u,v\n", b"u,v\r\n\r\n"):
        path.write_bytes(data)
        assert ds._loadtxt_records(path, names) is None
        assert main(["classify", "--model", str(model), "--data", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


# the golden model's chunks hold this many records
CHUNK = 5


@pytest.fixture
def small_chunks(monkeypatch, tmp_path):
    """The golden model, with chunks of CHUNK records."""
    model = golden_model(tmp_path)
    engine = CompiledFIS.from_config(load_model(model))
    width = engine.n_rules + 2 * 3  # strengths, then 2 inputs x (2 terms + 1)
    monkeypatch.setattr(fuzzy, "CHUNK_BYTES", 8 * width * CHUNK)
    assert engine.chunk_rows == CHUNK
    return model


def golden_records(n):
    """n records of the golden model; every third fires no rule (u = 0)."""
    rng = np.random.default_rng(n)
    records = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 100, n)])
    records[::3, 0] = 0.0
    return records


def csv_rows(records):
    return [f"{u!r},{v!r}\n" for u, v in records.tolist()]


def unchunked_lines(model, records):
    """classify's stdout, from one strength_matrix and one decide of its
    per-class maximum over all the records."""
    config = load_model(model)
    engine = CompiledFIS.from_config(config)
    strengths = engine.strength_matrix(records)
    crisp, labels = engine.decide(class_levels(engine, records))
    texts = [format_rule(r, config.output.name) for r in config.rules]
    lines = []
    for i, row in enumerate(strengths):
        top = int(row.argmax())
        part = (f"top_rule=[{texts[top]}] strength={row[top]:.4f}"
                if row[top] > 0 else "top_rule=none (no rule fired)")
        lines.append(
            f"record {i + 1}: crisp={crisp[i]:.6f} "
            f"class={config.output.term_names[labels[i]]} ({labels[i]}) {part}\n"
        )
    return "".join(lines)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_classify_output_does_not_depend_on_chunks(small_chunks, tmp_path,
                                                   capsys, n):
    records = golden_records(n)
    path = tmp_path / "records.csv"
    path.write_text("u,v\n" + "".join(csv_rows(records)))
    assert main(["classify", "--model", str(small_chunks), "--data", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == unchunked_lines(small_chunks, records)
    unfired = captured.out.count("no rule fired")
    assert captured.err == (
        f"classified {n} records, {unfired} fired no rule "
        "(crisp at the output midpoint)\n"
    )


def test_classify_checks_every_chunk_before_printing(small_chunks, tmp_path,
                                                     capsys):
    rows = csv_rows(golden_records(2 * CHUNK + 1))
    rows[-1] = "5,nan\n"  # alone in the third chunk, file row 2 * CHUNK + 2
    path = tmp_path / "records.csv"
    path.write_text("u,v\n" + "".join(rows))
    assert main(["classify", "--model", str(small_chunks), "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"row {2 * CHUNK + 2}: non-finite value" in captured.err
    assert captured.out == ""


def test_classify_top_rule_at_equal_strengths_is_the_first_in_file(tmp_path,
                                                                  capsys):
    # the engine runs its rules sorted by consequent; at equal strengths
    # the top rule printed is still the first in file order, whether that
    # is the positive rule (u = 7, v = 30) or the negative one (u = 3, v = 70)
    config = load_model(golden_model(tmp_path))
    rules = (
        Rule((("u", "high"),), "positive"),
        Rule((("v", "low"),), "negative"),
        Rule((("u", "low"),), "negative"),
        Rule((("v", "high"),), "positive"),
    )
    model = tmp_path / "interleaved.json"
    save_model(FISConfig(config.inputs, config.output, rules), model)
    records = tmp_path / "records.csv"
    records.write_text("u,v\n7,30\n3,70\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    out = capsys.readouterr().out.splitlines()
    for line, rule in zip(out, (rules[0], rules[2])):
        assert f"top_rule=[{format_rule(rule, 'outcome')}] strength=0.7000" in line
    assert len(out) == 2


class _NullSink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_classify_memory_is_the_records_plus_one_chunk(tmp_path):
    # 4 inputs x 3 terms, one rule per antecedent: 81 rules, so that
    # unchunked strengths alone would take 8 * 81 bytes a record
    inputs = tuple(uniform_partition(f"x{i}", 0.0, 1.0) for i in range(4))
    rules = tuple(
        Rule(tuple((v.name, t) for v, t in zip(inputs, terms)),
             ("negative", "positive")[k % 2])
        for k, terms in enumerate(
            itertools.product(("low", "medium", "high"), repeat=4)
        )
    )
    model = tmp_path / "model.json"
    save_model(FISConfig(inputs, class_output_variable(), rules), model)
    n, m = 50_000, len(inputs)
    records = tmp_path / "records.csv"
    np.savetxt(records, np.random.default_rng(0).random((n, m)), fmt="%.6f",
               delimiter=",", header="x0,x1,x2,x3", comments="")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_NullSink()), \
                contextlib.redirect_stderr(_NullSink()):
            code = main(["classify", "--model", str(model), "--data", str(records)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the parsed records, 8 bytes a value, then one chunk at a time: its
    # strengths, their running minimum, term levels and text are each about
    # CHUNK_BYTES, whatever the record count
    assert peak < 8 * m * n + 6 * fuzzy.CHUNK_BYTES


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
