import contextlib
import csv
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gafuzzy.cli import OPTIONS, _packaged, main
from gafuzzy.fuzzy import (
    CompiledFIS,
    FISConfig,
    LinguisticVariable,
    Rule,
    Triangular,
    class_output_variable,
    infer,
    load_model,
    save_model,
    uniform_partition,
)
from gafuzzy import dataset as ds, fuzzy, selector
from gafuzzy.errors import ConfigError
from gafuzzy.ga import MAX_POPULATION
from gafuzzy.rule_learning import MAX_PARTITIONS, InductionConfig, format_rule
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


def headerless_pima(first_label):
    """The bundled data without its header, the first record's label
    replaced."""
    return pima_rows(2, -1, f"{first_label}\n").split(b"\n", 1)[1]


FIELD_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("command, flag, data, message", [
    ("validate", "--data", pima_rows(4, -1, "maybe\n"), "row 4: unknown label 'maybe'"),
    ("validate", "--data", headerless_pima(7), "row 1: unknown label '7'"),
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
    ("validate", "--data", _packaged("pima.csv").read_bytes().replace(
        b"pregnancies,glucose,", b"glucose,pregnancies,", 1),
     "row 1: column 0 is headed 'glucose', not 'pregnancies'"),
    ("classify", "--data", b"u,v\n6,30\n6,1,30\n", "row 3: expected 2 columns, got 3"),
    ("validate", "--schema", packaged_with("pima.schema", b"index = 8", b"index = -1"),
     "label index must be at least 0, got -1"),
    ("classify", "--data", b"u,v,u\n6,30,1\n",
     "header names model inputs ['u'] more than once"),
    ("classify", "--data", b'"u","v","u"\n"6","30","1"\n',
     "header names model inputs ['u'] more than once"),
    ("select", "--rules", b"IF glucose IS high THEN outcome IS positive WEIGHT 2\n",
     "line 1: rule weight must lie in [0, 1], got 2.0"),
    ("select", "--rules", b"IF glucose IS high AND glucose IS low THEN outcome IS positive\n",
     "line 1: rule repeats a variable in its antecedent"),
    ("validate", "--schema", packaged_with("pima.schema", b"negative = 0", b"negative = 1"),
     "positive and negative label values must differ"),
    ("validate", "--schema", packaged_with("pima.schema", b"negative = 0", b"negative = 1.0"),
     "positive and negative label values '1' and '1.0' are the same number"),
    ("validate", "--data", b"".join(_packaged("pima.csv").read_bytes().splitlines(True)[:2]),
     "need at least 2 records"),
], ids=["data-label", "data-first-label", "costs-missing", "costs-duplicate", "rules-variable",
        "data-long-cell", "records-long-cell", "data-swapped-header", "records-stray-comma",
        "schema-negative-label", "records-input-twice", "records-input-twice-quoted",
        "rules-weight", "rules-repeated-variable", "schema-equal-labels",
        "schema-equal-number-labels", "data-one-record"])
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


BOM = "\ufeff".encode()


@pytest.mark.parametrize("command, flag, data, expected", [
    ("validate", "--data", BOM + headerless_pima(1), "records: 768\n"),
    ("validate", "--schema", BOM + _packaged("pima.schema").read_bytes(),
     "records: 768\n"),
    ("classify", "--data", BOM + b"u,v\n6,30\n", "record 1: crisp="),
    ("classify", "--model", None, "record 1: crisp="),
], ids=["data", "schema", "records", "model"])
def test_a_byte_order_mark_is_accepted(tmp_path, capsys, command, flag, data,
                                       expected):
    # editors and spreadsheets may start a UTF-8 file with one
    path = tmp_path / "input"
    if command == "classify":
        records = tmp_path / "records.csv"
        records.write_text("u,v\n6,30\n")
        argv = input_argv(command, tmp_path, records)
        data = data or BOM + golden_model(tmp_path).read_bytes()
    else:
        argv = argv_with(command, flag, path, tmp_path)
    path.write_bytes(data)
    argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == 0
    assert expected in capsys.readouterr().out


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
    # a config value out of range names the file and its key
    path = tmp_path / "input.config"
    path.write_bytes(files["--config"].replace(b"population = 8", b"population = -1"))
    assert main(["select", *PIMA_ARGS, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: [ga] population: population_size must be at least 2" in err, err


# --- select ---------------------------------------------------------------------

def test_one_feature_data_selects_and_reports(tmp_path, capsys):
    # the only mask with a bit set is chosen; crossover has no cut to make,
    # and the search stops after generation 0, which has scored that mask
    rows = csv.reader(_packaged("pima.csv").read_text().splitlines())
    (tmp_path / "one.csv").write_text("".join(f"{r[1]},{r[-1]}\n" for r in rows))
    (tmp_path / "one.schema").write_text(
        "[label]\nname = outcome\nindex = 1\n\n[glucose]\nindex = 0\n")
    (tmp_path / "one.costs").write_text("[costs]\nglucose = 16\n")
    files = [str(tmp_path / name) for name in ("one.csv", "one.schema", "one.costs")]
    argv = ["select", "--data", files[0], "--schema", files[1], "--costs", files[2],
            "--seed", "1", *FAST, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "selected mask: 1\n" in captured.out
    last = captured.err.splitlines()[-1]
    assert last.startswith("gen 0: ") and " unique=1 " in last, captured.err
    trace = json.loads((tmp_path / "out" / "result.json").read_text())["trace"]
    assert [row["generation"] for row in trace] == [0]
    assert main(["report", "--out", str(tmp_path / "out")]) == 0


def test_select_deterministic_and_prints_selection(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["select", *PIMA_ARGS, "--seed", "42", *FAST]
    assert main([*argv, "--out", str(out_a)]) == 0
    first = capsys.readouterr()
    assert main([*argv, "--out", str(out_b)]) == 0

    files_a, files_b = read_all(out_a), read_all(out_b)
    assert set(files_a) == {"result.json", "model.json", "baseline.json"}
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


@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_unknown_impute_column_names_how_it_was_set(tmp_path, capsys, flag):
    # an unknown --impute-columns feature stops select before the search,
    # named by the flag, or by the file and [run] key it came from
    config = tmp_path / "run.ini"
    config.write_text("[run]\nimpute = median\n"
                      + ("" if flag else "impute_columns = foo\n"))
    argv = ["select", *PIMA_ARGS, *FAST, "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--impute-columns", "foo"] * flag) == 2
    err = capsys.readouterr().err
    named = "--impute-columns" if flag else f"{config}: [run] impute_columns"
    assert f"error: {named}: unknown feature 'foo'" in err, err
    assert "gen " not in err


@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("impute, value, message", [
    ("none", "nosuch", "unknown feature 'nosuch'"),
    ("none", ",", "names no feature"),
    ("median", ",", "names no feature"),
], ids=["unknown-unused", "empty-unused", "empty"])
def test_impute_columns_are_checked_whenever_given(tmp_path, capsys, flag, impute,
                                                   value, message):
    # with or without --impute median to use them, before the search
    config = tmp_path / "run.ini"
    config.write_text("[run]\n" + ("" if flag else f"impute_columns = {value}\n"))
    argv = ["select", *PIMA_ARGS, *FAST, "--impute", impute, "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--impute-columns", value] * flag) == 2
    err = capsys.readouterr().err
    named = "--impute-columns" if flag else f"{config}: [run] impute_columns"
    assert err == f"error: {named}: {message}\n"


def pregnancies_only(tmp_path):
    """Input flags of a one-feature table that has none of the default
    anomaly columns."""
    rows = csv.reader(_packaged("pima.csv").read_text().splitlines())
    (tmp_path / "p.csv").write_text("".join(f"{r[0]},{r[-1]}\n" for r in rows))
    (tmp_path / "p.schema").write_text(
        "[label]\nname = outcome\nindex = 1\n\n[pregnancies]\nindex = 0\n")
    (tmp_path / "p.costs").write_text("[costs]\npregnancies = 1\n")
    return ["--data", str(tmp_path / "p.csv"), "--schema", str(tmp_path / "p.schema"),
            "--costs", str(tmp_path / "p.costs")]


def test_impute_median_needs_columns_the_schema_has(tmp_path, capsys):
    # none of the default anomaly columns: refused until some are named
    argv = ["select", *pregnancies_only(tmp_path), *FAST, "--impute", "median",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: no default anomaly columns in this "
                                       "schema; pass --impute-columns\n")
    assert main(argv + ["--impute-columns", "pregnancies"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--impute-columns", "nosuch"], "--impute-columns: unknown feature 'nosuch'"),
    (["--impute-columns", ","], "--impute-columns: names no feature"),
    (["--impute", "median"], "no default anomaly columns in this schema; "
                             "pass --impute-columns"),
], ids=["unknown", "empty", "median-without-anomaly-columns"])
def test_validate_checks_the_impute_options_as_select_does(tmp_path, capsys, flags,
                                                          message):
    # validate takes --impute and --impute-columns to check them, so a typo
    # is caught before a run and not silently ignored
    inputs = pregnancies_only(tmp_path)
    for command in ("validate", "select"):
        extra = [*FAST, "--out", str(tmp_path / "out")] if command == "select" else []
        assert main([command, *inputs, *flags, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value, message", [
    ("--generations", "-1", "max_generations must be non-negative"),
    ("--stagnation", "0", "stagnation_window must be at least 1"),
    ("--partitions", "1", "partitions_per_input must be at least 2"),
    ("--partitions", str(MAX_PARTITIONS + 1),
     f"partitions_per_input must be at most {MAX_PARTITIONS:,}"),
    ("--pop", str(MAX_POPULATION + 1), f"population_size must be at most {MAX_POPULATION:,}"),
], ids=["generations", "stagnation", "partitions-low", "partitions-cap", "pop-cap"])
def test_a_search_knob_out_of_range_exits_2_before_allocating(tmp_path, capsys, source,
                                                              flag, value, message):
    # refused as the configs are built, before the degree tables or the
    # first population take their memory
    opt, = [opt for opt in OPTIONS.values() if opt.flag == flag]
    argv = ["select", *PIMA_ARGS, "--out", str(tmp_path / "out")]
    named = flag
    if source == "flag":
        argv += [flag, value]
    else:
        config = tmp_path / "run.ini"
        config.write_text(f"[{opt.section}]\n{opt.key} = {value}\n")
        argv += ["--config", str(config)]
        named = f"{config}: [{opt.section}] {opt.key}"
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {named}: {message}\n"
    assert not (tmp_path / "out").exists()
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_unfillable_fold_count_names_how_it_was_set(tmp_path, capsys, flag):
    # a fold count larger than a class stops select before the search,
    # named by the flag, or by the file and [fitness] key it came from
    config = tmp_path / "run.ini"
    config.write_text("[fitness]\n" + ("" if flag else "folds = 800\n"))
    argv = ["select", *PIMA_ARGS, *FAST, "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--folds", "800"] * flag) == 2
    err = capsys.readouterr().err
    named = "--folds" if flag else f"{config}: [fitness] folds"
    assert f"error: {named}: a class has fewer than k=800 members" in err, err
    assert "gen " not in err


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


def test_rules_file_without_rules_stops_select_before_the_search(tmp_path,
                                                                capsys):
    # a rule file of comments and blank lines only exits 2 naming it,
    # instead of saving a model that labels every record positive
    empty = tmp_path / "empty.rules"
    empty.write_text("# no rules yet\n\n")
    out = tmp_path / "out"
    assert main([*EXPERT_ARGV, "--out", str(out), "--rules", str(empty)]) == 2
    err = capsys.readouterr().err
    assert f"{empty}: no rule in the file" in err
    assert not any(line.startswith("gen ") for line in err.splitlines())
    assert not out.exists()


def test_expert_rules_accuracy_scores_saved_model(tmp_path, pima_data, capsys):
    _, out = run_with_expert_rules(tmp_path)
    result = json.loads((out / "result.json").read_text())
    _, test_idx = FitnessConfig.from_master_seed(21).report_split(pima_data)
    kept = [i for i, bit in enumerate(result["best_mask"]) if bit == "1"]
    _, labels = CompiledFIS(load_model(out / "model.json")).predict(
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
        code = main([command, *PIMA_ARGS, "--config", str(config),
                     *["--out", str(out)] * (command == "select")])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and str(config) in err
    assert not out.exists()


def test_one_config_file_serves_every_command(tmp_path):
    # every key any command reads, plus the ignored [run] workers
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        f"[paths]\nout = {out}\ndata = {_packaged('pima.csv')}\n"
        f"schema = {_packaged('pima.schema')}\ncosts = {_packaged('pima.costs')}\n"
        "[run]\nseed = 3\nimpute = none\nimpute_columns = glucose\nworkers = 4\n"
        "[ga]\npopulation = 8\npc = 0.6\npm = 0.05\ngenerations = 2\n"
        "stagnation = 2\nelites = 1\n"
        "[fitness]\nlambda = 0.3\nfolds = 3\n"
        "[fis]\nresolution = 101\nthreshold = 0.5\n"
        "[induction]\npartitions = 3\nmin_rule_weight = 0.0\n"
    )
    for command in ("validate", "select", "report", "classify"):
        assert main([command, "--config", str(config)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["provenance"]["ga"]["population_size"] == 8


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [
    ("resolution", "-1"), ("resolution", "2"), ("resolution", str(10**30)),
    ("threshold", "1.5"), ("threshold", "0.333"), ("threshold", "0.7"),
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


@pytest.mark.parametrize("args", [
    ["--threshold", "0.334"], ["--threshold", "0.667"],
    ["--threshold", "0.2", "--resolution", "3"],
])
def test_a_threshold_the_crisp_output_reaches_is_accepted(tmp_path, args):
    # the class output's crisp values span [0.333, 0.667] at the default
    # resolution of 1001 samples, and [1/6, 5/6] at 3
    argv = ["select", *PIMA_ARGS, "--pop", "4", "--generations", "0", *args,
            "--out", str(tmp_path)]
    assert main(argv) == 0


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


def test_classify_without_data_exits_2(tmp_path, capsys):
    assert main(["classify", "--model", str(golden_model(tmp_path))]) == 2
    assert capsys.readouterr().err == "error: missing required path: --data\n"


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
    for _ in range(400):  # enough that each outcome comes over 30 times
        data = corrupt_records(rng)
        path.write_bytes(data)
        try:
            with ds.reading(path):
                expected, _ = ds.read_rows(path, names)
        except ConfigError:
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
    engine = CompiledFIS(load_model(model))
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
    """classify's stdout, from the strengths infer gives each record and one
    decide of the per-class maxima of all the records."""
    config = load_model(model)
    engine = CompiledFIS(config)
    strengths = np.array([infer(config, record).strengths for record in records])
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


def test_classify_top_rule_ties_across_classes_in_a_tree(tmp_path, capsys):
    # three inputs, so the engine runs its rules through the tree: at equal
    # strengths of a positive and a negative rule the one printed is the
    # first in the file, the positive rule at (7, 3, 7), although the engine
    # runs the negative rules first, and the negative rule at (5, 7, 7)
    inputs = tuple(uniform_partition(name, 0.0, 10.0, 2) for name in "uvw")
    rules = (
        Rule((("u", "low"), ("w", "high")), "negative"),
        Rule((("u", "high"), ("v", "low"), ("w", "high")), "positive"),
        Rule((("v", "low"), ("w", "high")), "negative"),
        Rule((("u", "high"), ("v", "high")), "positive"),
    )
    config = FISConfig(inputs, class_output_variable(), rules)
    assert config.engine.levels
    model = tmp_path / "tree.json"
    save_model(config, model)
    records = tmp_path / "records.csv"
    records.write_text("u,v,w\n7,3,7\n5,7,7\n")
    assert main(["classify", "--model", str(model), "--data", str(records)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    for line, rule, strength in zip(out, (rules[1], rules[0]), ("0.7000", "0.5000")):
        assert f"top_rule=[{format_rule(rule, 'outcome')}] strength={strength}" in line


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
    assert text.endswith(f"wrote {out / 'report.json'}\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "baseline.json", "model.json", "report.json", "result.json"]
    written = (out / "report.json").read_bytes()
    # repeated invocation: identical output
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == written


def test_report_missing_result(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path)])
    assert code == 2


def readme_library_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block, = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    return block


def test_readme_library_example_runs(monkeypatch, capsys):
    # the README's python block, run as written where the packaged data
    # files are: it prints the selected names, the accuracy and the cost
    monkeypatch.chdir(_packaged("pima.csv").parent)
    exec(compile(readme_library_block(), "README.md", "exec"), {})
    names, accuracy, cost = capsys.readouterr().out.rsplit(" ", 2)
    assert names.startswith("(") and 0.0 < float(accuracy) <= 1.0 and float(cost) > 0


def test_top_level_names_are_the_readme_names():
    # gafuzzy exports what README "Library use" calls, and no more, and
    # importing it loads neither the report module nor the CLI
    script = ("import sys, types, gafuzzy; print(' '.join(sorted(n for n, v in "
              "vars(gafuzzy).items() if not n.startswith('_') "
              "and not isinstance(v, types.ModuleType)))); "
              "print('gafuzzy.evaluation' in sys.modules, 'gafuzzy.cli' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(fuzzy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    used = set(re.findall(r"\bgz\.(\w+)", readme_library_block()))
    assert len(used) == 9
    assert out == [" ".join(sorted(used)), "False False"]


def test_usage_error_exit_code():
    for argv in (["select", "--pop", "not-a-number"], ["select", "--impute", "foo"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# each command takes only the flags it reads; these were once accepted by
# commands that read none of them, so a typo in one passed silently
DROPPED_FLAG_VALUES = {
    "--data": str(_packaged("pima.csv")),
    "--schema": str(_packaged("pima.schema")),
    "--costs": str(_packaged("pima.costs")),
    "--seed": "1", "--out": "out", "--impute": "median", "--impute-columns": "glucose",
}


@pytest.mark.parametrize("command, flag", [
    ("validate", "--seed"), ("validate", "--out"),
    *[("classify", flag) for flag in
      ("--schema", "--costs", "--seed", "--impute", "--impute-columns")],
    *[("report", flag) for flag in
      ("--data", "--schema", "--costs", "--seed", "--impute", "--impute-columns")],
])
def test_a_flag_its_command_does_not_read_exits_2(saved_run, tmp_path, capsys,
                                                  command, flag):
    run = tmp_path / "run"
    shutil.copytree(saved_run, run)
    argv = {"validate": [],
            "classify": ["--model", str(run / "model.json"),
                         "--data", str(_packaged("pima.csv"))],
            "report": ["--out", str(run)]}[command]
    value = DROPPED_FLAG_VALUES[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (run / "report.json").exists()


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


DELETE = object()  # a value that run_on_corrupted deletes the key of


def run_on_corrupted(saved_run, tmp_path, name, path, value, text=None):
    """Copy the run, overwrite (or DELETE) one field of one file, and run the
    command that reads that file. Given text, the field holds that JSON text
    instead of value. Returns (exit code, corrupted file)."""
    out = tmp_path / "run"
    shutil.copytree(saved_run, out)
    target = out / name
    payload = json.loads(target.read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    written = json.dumps(payload)
    target.write_text(written if text is None
                      else written.replace(json.dumps(value), text))
    if name == "model.json":
        argv = ["classify", "--model", str(target), "--data", str(_packaged("pima.csv"))]
    else:
        argv = ["report", "--out", str(out)]
    return main(argv), target


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("model.json", ("resolution",), "abc", None),
        ("model.json", ("decision_threshold",), "abc", None),
        ("model.json", ("rules", 0, "weight"), "abc", None),
        ("model.json", ("resolution",), 10**30, None),
        ("result.json", ("provenance", "fitness", "evaluation", "param"), "abc", None),
        ("baseline.json", ("accuracy",), "x", None),
        ("baseline.json", ("cost",), float("inf"), None),  # written as Infinity
        # a missing key takes no default, unless that default is None
        ("result.json", ("provenance", "ga", "population_size"), DELETE, None),
        ("baseline.json", ("confusion", "tp"), DELETE, None),
        ("model.json", ("resolution",), DELETE, "missing key 'resolution'"),
        ("model.json", ("decision_threshold",), DELETE,
         "missing key 'decision_threshold'"),
        ("model.json", ("rules", 0, "weight"), DELETE, "rules: missing key 'weight'"),
        # each value has its field's JSON type: nothing is cast
        ("model.json", ("resolution",), 1001.9,
         "resolution: expected an integer, got 1001.9"),
        ("model.json", ("resolution",), "1001",
         "resolution: expected an integer, got '1001'"),
        ("model.json", ("rules", 0, "weight"), True,
         "rules: weight: expected a number, got a boolean"),
        ("model.json", ("inputs", 0, "terms", 0, "params"), {"a": 0, "b": 1, "c": 2},
         "inputs: terms: params: expected an array, got an object"),
        ("baseline.json", ("feature_count",), 8.9,
         "feature_count: expected an integer, got 8.9"),
        ("baseline.json", ("feature_count",), "8",
         "feature_count: expected an integer, got '8'"),
        ("baseline.json", ("accuracy",), True,
         "accuracy: expected a number, got a boolean"),
        ("result.json", ("selected_names",), "glucose",
         "selected_names: expected an array, got 'glucose'"),
        # each value lies in its field's range
        ("baseline.json", ("feature_count",), -3,
         "feature_count must be at least 1, got -3"),
        ("baseline.json", ("accuracy",), 7.5, "accuracy must be in [0, 1], got 7.5"),
        ("baseline.json", ("cost",), -1.0, "cost must be at least 0, got -1.0"),
        ("baseline.json", ("confusion", "tp"), -1,
         "confusion: tp must be at least 0, got -1"),
        ("result.json", ("best_mask",), "1",
         "selected_names holds 2 names, best_mask selects 1"),
        ("result.json", ("accuracy",), -0.5, "accuracy must be in [0, 1], got -0.5"),
        ("result.json", ("cost",), -2.0, "cost must be at least 0, got -2.0"),
        ("result.json", ("trace", 0, "generation"), -1,
         "trace: generation must be at least 0, got -1"),
        ("result.json", ("best_mask",), "00000000",
         "bits set in best_mask must be at least 1, got 0"),
        ("result.json", ("trace", 0, "best_mask"), "00000000",
         "trace: bits set in best_mask must be at least 1, got 0"),
        # a mask as long as the baseline's feature count
        ("result.json", ("best_mask",), "11", None),
    ],
    ids=["model-resolution", "model-threshold", "model-rule-weight",
         "model-resolution-too-large", "result-evaluation-param",
         "baseline-accuracy", "baseline-infinite-cost",
         "result-missing-population", "baseline-missing-tp",
         "model-missing-resolution", "model-missing-threshold",
         "model-missing-rule-weight", "model-fractional-resolution",
         "model-resolution-string", "model-rule-weight-bool",
         "model-params-object", "baseline-fractional-feature-count",
         "baseline-feature-count-string", "baseline-accuracy-bool",
         "result-selected-names-string", "baseline-feature-count-negative",
         "baseline-accuracy-above-1", "baseline-cost-negative",
         "baseline-confusion-negative", "result-mask-names-differ",
         "result-accuracy-negative", "result-cost-negative",
         "result-generation-negative", "result-mask-empty",
         "result-trace-mask-empty", "result-mask-length"],
)
def test_malformed_saved_file_exits_2(saved_run, tmp_path, capsys, name, path, value,
                                      message):
    code, target = run_on_corrupted(saved_run, tmp_path, name, path, value)
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(target) in err
    if message is not None:
        assert f"{target}: malformed {name.split('.')[0]} file: {message}" in err


def test_report_refuses_a_selection_of_no_feature(saved_run, tmp_path, capsys):
    # a mask with no bit set and no selected name agree with each other, but
    # no classifier runs on an empty feature set
    out = tmp_path / "run"
    shutil.copytree(saved_run, out)
    target = out / "result.json"
    payload = json.loads(target.read_text())
    payload["best_mask"], payload["selected_names"] = "00000000", []
    target.write_text(json.dumps(payload))
    assert main(["report", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (f"{target}: malformed result file: bits set in best_mask must be "
            "at least 1, got 0") in captured.err
    assert "with selection" not in captured.out


# SHA-256 of model.json for master seed 1: the full-feature model of the
# classify benchmark and CI, trained on the reporting holdout's training
# rows, and the model `select --seed 1` writes
MODEL_SHA256_SEED_1 = {
    "full-feature": "444b25dcce81e56095f75b93b8681fa0f3806545aa3eb6059e4213c74e695c4e",
    "select": "0b276b6241859082fc7acf5ccda2aff39337870a78f58e3f1b9b5a53fc5929de",
}


@pytest.mark.parametrize("which", sorted(MODEL_SHA256_SEED_1))
def test_model_files_of_seed_1_are_pinned(pima_data, tmp_path, which):
    # the bytes of a saved model, and a load and a second save keep them
    path = tmp_path / "model.json"
    if which == "select":
        assert main(["select", "--seed", "1", "--out", str(tmp_path)]) == 0
    else:
        model, _, _ = selector.holdout_evaluation(
            pima_data, (1,) * 8, FitnessConfig.from_master_seed(1), InductionConfig())
        save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256_SEED_1[which]
    again = tmp_path / "again.json"
    save_model(load_model(path), again)
    assert again.read_bytes() == path.read_bytes()


# SHA-256 of the run file `select --seed 1` writes that holds the search:
# the result with the generation trace and selected mask
RUN_SHA256_SEED_1 = {
    "result.json": "7e31158021b9bd6cec2156e4272689eda834e3f86df61c620a071a705ee26d89",
}


def test_search_files_of_seed_1_are_pinned(tmp_path, capsys):
    assert main(["select", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in RUN_SHA256_SEED_1} == RUN_SHA256_SEED_1
    # the trace holds one row per generation logged
    logged = [line.split(":")[0] for line in capsys.readouterr().err.splitlines()
              if line.startswith("gen ")]
    trace = json.loads((tmp_path / "result.json").read_text())["trace"]
    assert [f"gen {row['generation']}" for row in trace] == logged


@pytest.mark.parametrize("name, path, text", [
    ("baseline.json", ("cost",), "1e400"),
    ("baseline.json", ("cost",), "1" + "0" * 400),
    ("model.json", ("inputs", 0, "universe", 1), "1e400"),
], ids=["baseline-cost-1e400", "baseline-cost-401-digits", "model-universe-1e400"])
def test_a_number_a_float_cannot_hold_exits_2(saved_run, tmp_path, capsys, recwarn,
                                              name, path, text):
    # no infinity gets in: report writes no report.json, and the model's
    # universe is not sampled
    code, target = run_on_corrupted(saved_run, tmp_path, name, path,
                                    "placeholder", text)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{target}: malformed" in err and "does not fit in a float" in err
    assert not (target.parent / "report.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_report_reads_a_result_file_of_the_old_format(saved_run, tmp_path):
    # older result files carry provenance.fitness.cache and a `stratified`
    # key in each split plan, and no provenance.master_seed
    runs = []
    for old in (False, True):
        out = tmp_path / f"old-{old}"
        shutil.copytree(saved_run, out)
        if old:
            payload = json.loads((out / "result.json").read_text())
            fitness = payload["provenance"]["fitness"]
            fitness["cache"] = True
            fitness["evaluation"]["stratified"] = True
            fitness["report_plan"]["stratified"] = True
            del payload["provenance"]["master_seed"]
            (out / "result.json").write_text(json.dumps(payload))
        assert main(["report", "--out", str(out)]) == 0
        runs.append((out / "report.json").read_bytes())
    assert runs[0] == runs[1]


# SHA-256 of the report.json that `report` writes for `select --seed 1`
REPORT_SHA256_SEED_1 = "662632cc3bc920b3fe67c4f46a13f71d6c8902ded4800119df1addd91cfd88fe"


def test_report_leaves_the_plot_files_of_an_older_run(tmp_path, capsys):
    # a run directory from when select also wrote trace.csv, and report
    # cost_series.csv and fitness_trace.csv, still reports, and those files
    # stay as they were
    assert main(["select", "--seed", "1", "--out", str(tmp_path)]) == 0
    rows = [["generation", "best_fitness", "mean_fitness", "best_mask"]] + [
        [str(row["generation"]), repr(row["best_fitness"]), repr(row["mean_fitness"]),
         row["best_mask"]]
        for row in json.loads((tmp_path / "result.json").read_text())["trace"]]
    old = {
        "trace.csv": "".join(",".join(row) + "\n" for row in rows).encode(),
        "cost_series.csv": b"series,label,value\ncost,full,46.0\ncost,selected,17.0\n",
        "fitness_trace.csv": "".join(",".join(row[:3]) + "\n" for row in rows).encode(),
    }
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
        os.utime(tmp_path / name, ns=(0, 0))
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {tmp_path / 'report.json'}\n")
    for name, data in old.items():
        assert (tmp_path / name).read_bytes() == data
        assert (tmp_path / name).stat().st_mtime_ns == 0
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256_SEED_1


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


@pytest.mark.parametrize("command", ["validate", "select", "classify", "report"])
def test_no_command_imports_numpy_ma(saved_run, tmp_path, pima_data, command):
    # numpy imports numpy.ma, 11-17 ms of start-up, on the first call of
    # np.unique without return_inverse or of np.median; select imputes, and
    # classify runs a full-feature model, so that its engine builds a tree
    argv = {"validate": [*PIMA_ARGS],
            "select": [*PIMA_ARGS, "--out", str(tmp_path), *FAST, "--impute", "median"],
            "classify": ["--data", str(_packaged("pima.csv")),
                         "--model", str(tmp_path / "full.json")],
            "report": ["--out", str(saved_run)]}[command]
    if command == "classify":
        model = selector.train_final_classifier(
            pima_data, (1,) * 8, FitnessConfig(), InductionConfig(), np.arange(768))
        assert model.engine.levels
        save_model(model, tmp_path / "full.json")
    script = ("import sys; from gafuzzy.cli import main; code = main(sys.argv[1:]); "
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'; "
              "sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": str(Path(fuzzy.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, command, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
