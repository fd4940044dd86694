"""Command-line interface.

Commands: validate, select, classify, report. One master seed drives every
stochastic component (GA, CV folds, reporting holdout) through fixed
labelled derivations, so a run is reproducible from its flags alone.

Exit codes: 0 success, 1 internal error, 2 user/config error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import fuzzy, rule_learning, selector
from .errors import ArityMismatch, ConfigError, GafuzzyError
from .ga import GAParams, mask_to_string, save_trace_csv

DEFAULT_SEED = 1
DEFAULT_OUT = "gafuzzy-out"
# columns where a zero reading is physiologically impossible and means
# "measurement missing"
DEFAULT_ZERO_COLUMNS = (
    "glucose", "blood_pressure", "skin_thickness", "insulin", "bmi",
)

RESULT_FILE = "result.json"
MODEL_FILE = "model.json"
BASELINE_FILE = "baseline.json"
TRACE_FILE = "trace.csv"
REPORT_FILE = "report.json"

# every [section] key some command reads from a --config file, so one file
# serves validate, select, classify and report; [run] workers is accepted
# and ignored, like the --workers flag
CONFIG_KEYS = {
    "paths": {"data", "schema", "costs", "out", "rules", "model", "baseline",
              "result"},
    "run": {"seed", "impute", "impute_columns", "workers"},
    "ga": {"population", "pc", "pm", "generations", "stagnation", "elites"},
    "fitness": {"lambda", "folds"},
    "fis": {"resolution", "threshold"},
    "induction": {"partitions", "min_rule_weight"},
}


def _packaged(name: str) -> Path:
    return Path(str(files("gafuzzy").joinpath("data", name)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafuzzy",
        description=(
            "Cost-aware feature selection with a genetic algorithm and a "
            "Mamdani fuzzy rule classifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", help="CSV data file")
    common.add_argument("--schema", help="schema file (INI)")
    common.add_argument("--costs", help="cost table file (INI)")
    common.add_argument("--config", help="run configuration file (INI)")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--out", help="output directory")
    common.add_argument(
        "--impute", choices=["none", "median"],
        help="replace zero anomalies by the training-split median",
    )
    common.add_argument(
        "--impute-columns",
        help="comma-separated columns for --impute (default: known anomaly columns)",
    )

    p_validate = sub.add_parser(
        "validate", parents=[common], help="check data, schema and cost files"
    )

    p_select = sub.add_parser(
        "select", parents=[common], help="run the GA feature selection"
    )
    p_select.add_argument("--lambda", dest="cost_weight", type=float,
                          help="cost penalty weight (default 0.3)")
    p_select.add_argument("--pop", type=int, help="population size (default 50)")
    p_select.add_argument("--pc", type=float, help="crossover probability (default 0.6)")
    p_select.add_argument("--pm", type=float, help="per-bit mutation probability (default 0.05)")
    p_select.add_argument("--generations", type=int, help="generation cap (default 100)")
    p_select.add_argument("--stagnation", type=int,
                          help="stop after this many generations without improvement (default 25)")
    p_select.add_argument("--elites", type=int, help="elite count (default 1)")
    p_select.add_argument("--folds", type=int, help="CV folds for fitness (default 5)")
    p_select.add_argument("--threshold", type=float,
                          help="decision threshold on the crisp output (default 0.5)")
    p_select.add_argument("--resolution", type=int,
                          help="defuzzification sample count (default 1001)")
    p_select.add_argument("--partitions", type=int,
                          help="fuzzy terms per input (default 3)")
    p_select.add_argument("--min-rule-weight", type=float,
                          help="drop induced rules lighter than this (default 0)")
    p_select.add_argument("--rules", help="expert rule file for the final model")
    p_select.add_argument("--workers", type=int,
                          help="ignored; kept so that older scripts still run")

    p_classify = sub.add_parser(
        "classify", parents=[common], help="classify records with a saved model"
    )
    p_classify.add_argument("--model", help="model file (default <out>/model.json)")

    p_report = sub.add_parser(
        "report", parents=[common],
        help="compare baseline and selection runs, emit plot data",
    )
    p_report.add_argument("--baseline", help="baseline file (default <out>/baseline.json)")
    p_report.add_argument("--result", help="result file (default <out>/result.json)")

    for p in (p_validate, p_select, p_classify, p_report):
        p.set_defaults(parser=p)
    return parser


class RunConfig:
    """Flag > config file > built-in default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.ini = configparser.ConfigParser(interpolation=None)
        if getattr(args, "config", None):
            read = self.ini.read(args.config)
            if not read:
                raise ConfigError(f"config file not found: {args.config}")
            self._check_keys(args.config)

    def _check_keys(self, path: str) -> None:
        """Reject a section or key no command reads, so a typo cannot fall
        back to a default unnoticed. [DEFAULT] keys reach every section."""
        shared = set(self.ini.defaults())
        unknown = [
            f"[DEFAULT] {key}" for key in sorted(shared)
            if not any(key in keys for keys in CONFIG_KEYS.values())
        ]
        for section in self.ini.sections():
            if section not in CONFIG_KEYS:
                unknown.append(f"[{section}]")
                continue
            unknown += [
                f"[{section}] {key}" for key in self.ini.options(section)
                if key not in CONFIG_KEYS[section] and key not in shared
            ]
        if unknown:
            raise ConfigError(
                f"config file {path}: unknown section or key {', '.join(unknown)}"
            )

    def get(self, section: str, option: str, flag: str | None, default, cast):
        assert option in CONFIG_KEYS[section], (section, option)
        if flag is not None:
            value = getattr(self.args, flag, None)
            if value is not None:
                return value
        if self.ini.has_option(section, option):
            try:
                return cast(self.ini.get(section, option))
            except ValueError as exc:
                raise ConfigError(
                    f"config [{section}] {option}: {exc}"
                ) from exc
        return default

    def path(self, option: str, flag: str, default: Path | None) -> Path:
        value = self.get("paths", option, flag, None, str)
        if value is not None:
            return Path(value)
        if default is None:
            raise ConfigError(f"missing required path: --{flag}")
        return default


def _load_inputs(cfg: RunConfig):
    schema_path = cfg.path("schema", "schema", _packaged("pima.schema"))
    data_path = cfg.path("data", "data", _packaged("pima.csv"))
    costs_path = cfg.path("costs", "costs", _packaged("pima.costs"))
    schema = ds.load_schema(schema_path)
    data = ds.load_csv(data_path, schema)
    costs = ds.load_costs(costs_path, schema)
    return data, costs


def _impute_columns(cfg: RunConfig, data: ds.Dataset) -> list[str]:
    raw = cfg.get("run", "impute_columns", "impute_columns", None, str)
    if raw:
        names = [c.strip() for c in raw.split(",") if c.strip()]
        for name in names:
            if name not in data.schema.feature_names:
                raise ConfigError(f"--impute-columns: unknown feature {name!r}")
        return names
    names = [c for c in DEFAULT_ZERO_COLUMNS if c in data.schema.feature_names]
    if not names:
        raise ConfigError(
            "no default anomaly columns in this schema; pass --impute-columns"
        )
    return names


def _selection_configs(cfg: RunConfig):
    master = cfg.get("run", "seed", "seed", DEFAULT_SEED, int)
    cost_weight = cfg.get("fitness", "lambda", "cost_weight", 0.3, float)
    folds = cfg.get("fitness", "folds", "folds", 5, int)
    resolution = cfg.get("fis", "resolution", "resolution", 1001, int)
    threshold = cfg.get("fis", "threshold", "threshold", 0.5, float)
    fcfg = selector.FitnessConfig.from_master_seed(
        master, cost_weight=cost_weight, folds=folds,
        resolution=resolution, decision_threshold=threshold,
    )
    params = GAParams(
        population_size=cfg.get("ga", "population", "pop", 50, int),
        crossover_prob=cfg.get("ga", "pc", "pc", 0.6, float),
        mutation_prob=cfg.get("ga", "pm", "pm", 0.05, float),
        max_generations=cfg.get("ga", "generations", "generations", 100, int),
        stagnation_window=cfg.get("ga", "stagnation", "stagnation", 25, int),
        elite_count=cfg.get("ga", "elites", "elites", 1, int),
        seed=selector.derive_seed(master, "ga"),
    )
    icfg = rule_learning.InductionConfig(
        partitions_per_input=cfg.get("induction", "partitions", "partitions", 3, int),
        min_rule_weight=cfg.get(
            "induction", "min_rule_weight", "min_rule_weight", 0.0, float
        ),
    )
    return master, params, fcfg, icfg


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    data, costs = _load_inputs(cfg)
    print(f"records: {data.n_records}")
    print(f"features: {data.n_features}")
    print(f"positive rate: {float(np.mean(data.labels)):.3f}")
    print(f"total cost: {costs.total_cost}")
    print(f"{'feature':<16} {'min':>10} {'max':>10} {'mean':>10} "
          f"{'cost':>8} {'zeros':>6}")
    for stat in ds.feature_stats(data):
        zeros = int(np.sum(data.records[:, data.schema.feature_names.index(stat.name)] == 0))
        print(
            f"{stat.name:<16} {stat.min:>10.3f} {stat.max:>10.3f} "
            f"{stat.mean:>10.3f} {costs.cost_of(stat.name):>8.2f} {zeros:>6}"
        )
    anomalies = [
        c for c in DEFAULT_ZERO_COLUMNS
        if c in data.schema.feature_names
        and np.any(data.records[:, data.schema.feature_names.index(c)] == 0)
    ]
    if anomalies:
        print(f"zero-value anomalies in: {', '.join(anomalies)} "
              f"(consider --impute median)")
    return 0


def _maybe_impute(cfg: RunConfig, data: ds.Dataset,
                  fcfg: selector.FitnessConfig) -> ds.Dataset:
    mode = cfg.get("run", "impute", "impute", "none", str)
    if mode == "none":
        return data
    if mode != "median":
        raise ConfigError(f"unknown impute mode {mode!r}")
    columns = _impute_columns(cfg, data)
    plan = fcfg.resolved_report_plan()
    (train_idx, _), = ds.stratified_split(data, plan)
    return ds.impute_zero_medians(data, columns, train_idx)


def cmd_select(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    data, costs = _load_inputs(cfg)
    master, params, fcfg, icfg = _selection_configs(cfg)
    data = _maybe_impute(cfg, data, fcfg)

    out_dir = Path(cfg.get("paths", "out", "out", DEFAULT_OUT, str))
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(stats, evaluator):
        # unique: distinct masks scored so far; hits: calls the cache answered
        print(
            f"gen {stats.generation}: best={stats.best_fitness:.6f} "
            f"mean={stats.mean_fitness:.6f} mask={mask_to_string(stats.best_mask)} "
            f"unique={evaluator.evaluations} hits={evaluator.hits}",
            file=sys.stderr,
        )

    result = selector.run_selection(
        data, costs, params, fcfg, icfg, on_generation=log, master_seed=master
    )

    # expert rules, when supplied, replace the induced rules of the final
    # model, and the reported accuracy is that of the model saved
    rules_path = cfg.get("paths", "rules", "rules", None, str)
    if rules_path:
        expert = rule_learning.load_expert_rules(rules_path, result.model)
        result.model, predicted, y_test = selector.holdout_evaluation(
            data, result.best_mask, fcfg, icfg, expert
        )
        result.accuracy = float(np.mean(predicted == y_test))

    full_mask = tuple([1] * data.n_features)
    _, base_pred, base_labels = selector.holdout_evaluation(
        data, full_mask, fcfg, icfg
    )
    base_acc, base_conf = ev.score(base_pred, base_labels)
    baseline = ev.BaselineRun(
        accuracy=base_acc,
        confusion=base_conf,
        feature_count=data.n_features,
        cost=costs.total_cost,
        dataset_fingerprint=data.fingerprint(),
        report_seed=fcfg.resolved_report_plan().seed,
    )

    selector.save_result(result, out_dir / RESULT_FILE)
    fuzzy.save_model(result.model, out_dir / MODEL_FILE)
    ev.save_baseline(baseline, out_dir / BASELINE_FILE)
    save_trace_csv(result.trace, out_dir / TRACE_FILE)

    print(f"selected features: {', '.join(result.selected_names)}")
    print(f"selected mask: {mask_to_string(result.best_mask)}")
    print(f"holdout accuracy: {result.accuracy:.4f} "
          f"(baseline {base_acc:.4f} with all {data.n_features} features)")
    print(f"cost: {result.cost:.2f} of {costs.total_cost:.2f}")
    print(f"fitness: {result.fitness:.6f}")
    print(f"outputs written to {out_dir}")
    return 0


def _read_records_csv(path: Path, input_names: tuple[str, ...]) -> np.ndarray:
    """Unlabelled records for classification.

    With a header, columns are matched by name (any order, extras allowed);
    without one, the column count must equal the model's input count.
    NaN and infinite values are rejected with their row number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if not rows:
        raise ConfigError(f"{path}: no records")
    header: list[str] | None = None
    if any(not ds._is_number(c) for c in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ConfigError(f"{path}: no data rows after header")
    columns = range(len(input_names))
    if header is not None:
        missing = [n for n in input_names if n not in header]
        if missing:
            raise ArityMismatch(f"{path}: header lacks model inputs {missing}")
        columns = [header.index(n) for n in input_names]
    records = []
    for row_no, row in enumerate(rows, start=2 if header else 1):
        if header is None and len(row) != len(input_names):
            raise ArityMismatch(
                f"{path} row {row_no}: expected {len(input_names)} values, "
                f"got {len(row)}"
            )
        try:
            values = [float(row[c]) for c in columns]
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path} row {row_no}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{path} row {row_no}: non-finite value")
        records.append(values)
    return np.asarray(records)


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    out_dir = Path(cfg.get("paths", "out", "out", DEFAULT_OUT, str))
    model_path = cfg.get("paths", "model", "model", None, str)
    model = fuzzy.load_model(Path(model_path) if model_path else out_dir / MODEL_FILE)
    data_path = cfg.path("data", "data", None)
    records = _read_records_csv(data_path, model.input_names)

    engine = fuzzy.CompiledFIS.from_config(model)
    strengths = engine.strength_matrix(records)
    crisp, labels = engine.decide(strengths)
    term_names = model.output.term_names
    texts = [rule_learning.format_rule(r, model.output.name) for r in model.rules]
    if model.rules:
        top = strengths.argmax(axis=1)
        top_strength = strengths[np.arange(len(top)), top]
    for i in range(records.shape[0]):
        if model.rules and top_strength[i] > 0:
            top_part = f"top_rule=[{texts[top[i]]}] strength={top_strength[i]:.4f}"
        else:
            top_part = "top_rule=none (no rule fired)"
        print(
            f"record {i + 1}: crisp={crisp[i]:.6f} "
            f"class={term_names[labels[i]]} ({labels[i]}) {top_part}"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = RunConfig(args)
    out_dir = Path(cfg.get("paths", "out", "out", DEFAULT_OUT, str))
    baseline_path = cfg.get("paths", "baseline", "baseline", None, str)
    result_path = cfg.get("paths", "result", "result", None, str)
    baseline = ev.load_baseline(
        Path(baseline_path) if baseline_path else out_dir / BASELINE_FILE
    )
    result = selector.load_result(
        Path(result_path) if result_path else out_dir / RESULT_FILE
    )
    report = ev.build_report(baseline, result)
    print(ev.format_report(report))
    ev.save_report(report, out_dir / REPORT_FILE)
    cost_path, trace_path = ev.emit_plot_data(report, result.trace, out_dir)
    print(f"wrote {out_dir / REPORT_FILE}, {cost_path}, {trace_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "select": cmd_select,
        "classify": cmd_classify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (GafuzzyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
